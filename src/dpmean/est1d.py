"""Univariate person-level mean estimator: private-histogram coarse range
estimation followed by truncate-and-noise fine estimation.

The stages read a column of per-person means, shape (n,), each the average
of m samples; ``estimate_mean_1d`` takes it from its ``PersonMeans``.

Convention used throughout: a coarse run with bucket width r guarantees
|mu_coarse - mu| < 2r, so a caller wanting coarse accuracy u picks width
r = u / 2.  The end-to-end pipeline targets u = 16/sqrt(m).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .core import (
    EstimateReport,
    EstimationFailedError,
    ParameterError,
    PersonMeans,
    PrivacyBudget,
    ProblemParams,
    Seed,
    derive_seed,
)
from .clipping import trunc_1d, truncation_bias_bound
from .mechanisms import BudgetLedger, HistogramSpec, laplace_noise, private_histogram

__all__ = [
    "CoarseResult",
    "FineConfig",
    "range_estimator",
    "fine_estimate_1d",
    "choose_rho_1d",
    "estimate_mean_1d",
    "DEFAULT_RHO_CONSTANT",
]

# Multiplier in choose_rho_1d.  With the default coarse accuracy u = 16/sqrt(m)
# this keeps rho > u across the acceptance grid; recorded in every report.
DEFAULT_RHO_CONSTANT = 4.0


@dataclass(frozen=True)
class CoarseResult:
    """Coarse range estimate: the midpoint of the winning histogram bucket."""

    mu_coarse: float
    bucket: tuple
    accuracy_claim: float  # 2r for bucket width r

    def __post_init__(self):
        lo, hi = self.bucket
        if not math.isclose(self.mu_coarse, (lo + hi) / 2, rel_tol=1e-9, abs_tol=1e-12):
            raise ParameterError("mu_coarse must be the bucket midpoint")


@dataclass(frozen=True)
class FineConfig:
    """Fine-estimation config: truncation radius and assumed coarse accuracy."""

    rho: float
    u_err: float

    def __post_init__(self):
        if not (self.rho > 0):
            raise ParameterError(f"rho must be > 0, got {self.rho}")
        if self.u_err < 0:
            raise ParameterError("u_err must be >= 0")


def range_estimator(
    means: np.ndarray, m: int, budget: PrivacyBudget, r: float, R: float, seed: Seed
) -> CoarseResult:
    """Histogram the per-person averages ``means`` (shape (n,), m samples
    each) over width-r buckets and return the midpoint of the heaviest
    released bucket.

    budget.delta selects the histogram variant (pure vs stability).  Ties go
    to the bucket with the smaller left endpoint.  Requires r < R and
    sqrt(m) * r >= 2 (the theory's n_0 degenerates as sqrt(m) * r -> 1).
    """
    if means.ndim != 1:
        raise ParameterError("range_estimator is univariate: means must have shape (n,)")
    if not (0 < r < R):
        raise ParameterError(f"need 0 < r < R, got r={r}, R={R}")
    if math.sqrt(m) * r < 2:
        raise ParameterError(
            f"need sqrt(m) * r >= 2 for a meaningful coarse step, got {math.sqrt(m) * r:.3f}"
        )
    spec = HistogramSpec.build(r, R)
    hist = private_histogram(means, spec, budget, seed)
    counts = np.where(hist.released, hist.counts, -np.inf)
    if not hist.released.any():
        raise EstimationFailedError("all histogram buckets were suppressed")
    best = int(np.argmax(counts))  # argmax takes the first max: smallest left endpoint
    edges = spec.edges
    lo, hi = float(edges[best]), float(edges[best + 1])
    return CoarseResult(mu_coarse=(lo + hi) / 2, bucket=(lo, hi), accuracy_claim=2 * r)


def fine_estimate_1d(
    means: np.ndarray, budget: PrivacyBudget, coarse: CoarseResult, cfg: FineConfig, seed: Seed
) -> EstimateReport:
    """Truncate the per-person averages ``means`` (shape (n,)) around the
    coarse estimate and release their mean with Laplace(2 rho / (n epsilon))
    noise (pure DP)."""
    if means.ndim != 1:
        raise ParameterError("fine_estimate_1d is univariate: means must have shape (n,)")
    if not budget.is_pure:
        raise ParameterError("fine estimation adds Laplace noise; budget must be pure (delta = 0)")
    if not (cfg.rho > cfg.u_err):
        raise ParameterError(f"need rho > u_err, got rho={cfg.rho}, u_err={cfg.u_err}")
    t0 = time.perf_counter()
    lo = coarse.mu_coarse - cfg.rho
    hi = coarse.mu_coarse + cfg.rho
    truncated = trunc_1d(means, lo, hi)
    scale = 2 * cfg.rho / (means.shape[0] * budget.epsilon)
    estimate = float(truncated.mean()) + laplace_noise(scale, seed)
    return EstimateReport(
        estimate=np.array([estimate]),
        epsilon=budget.epsilon,
        delta=0.0,
        seed=seed,
        wall_time_ms=(time.perf_counter() - t0) * 1e3,
        params={
            "rho": cfg.rho,
            "u_err": cfg.u_err,
            "mu_coarse": coarse.mu_coarse,
            "noise_scale": scale,
        },
    )


def choose_rho_1d(n: int, m: int, epsilon: float, beta: float, k: float) -> float:
    """Truncation radius c * (sqrt((k-1) ln m / m) + (n eps / ln(1/beta))^{1/k} / m^{1-1/k})
    with c = DEFAULT_RHO_CONSTANT."""
    if n <= 0 or m <= 0 or epsilon <= 0 or not (0 < beta < 1) or k <= 2:
        raise ParameterError("choose_rho_1d arguments out of range")
    concentration = math.sqrt((k - 1) * math.log(m) / m)
    noise_tradeoff = (n * epsilon / math.log(1 / beta)) ** (1 / k) / m ** (1 - 1 / k)
    return DEFAULT_RHO_CONSTANT * (concentration + noise_tradeoff)


def estimate_mean_1d(
    data: PersonMeans, budget: PrivacyBudget, params: ProblemParams, seed: Seed
) -> EstimateReport:
    """Full univariate pipeline: a 50/50 budget split between the coarse range
    estimator and the fine truncate-and-noise step (basic composition).

    Coarse accuracy target is u = max(16^{1/k}, 16)/sqrt(m), realized with
    bucket width u/2; the fine step truncates to choose_rho_1d's radius.
    Pure budgets run the pure histogram; delta > 0 switches to the stability
    variant (fine noise stays Laplace, so all of delta is spent coarse).
    """
    if data.means.shape[1] != 1:
        raise ParameterError("estimate_mean_1d is univariate (d = 1)")
    t0 = time.perf_counter()
    report = _estimate_column(data.means[:, 0], data.m, budget, params, seed)
    report.wall_time_ms = (time.perf_counter() - t0) * 1e3
    return report


def _estimate_column(
    means: np.ndarray, m: int, budget: PrivacyBudget, params: ProblemParams, seed: Seed
) -> EstimateReport:
    """The pipeline of ``estimate_mean_1d`` on one column of per-person means."""
    eps_stage = budget.epsilon / 2
    u_target = max(16 ** (1 / params.k), 16.0) / math.sqrt(m)
    r = u_target / 2
    coarse_budget = PrivacyBudget(eps_stage, budget.delta)
    coarse = range_estimator(means, m, coarse_budget, r, params.range_R, derive_seed(seed, 0))

    rho = choose_rho_1d(means.shape[0], m, eps_stage, params.beta, params.k)
    cfg = FineConfig(rho=rho, u_err=coarse.accuracy_claim)
    fine_budget = PrivacyBudget(eps_stage, 0.0)
    report = fine_estimate_1d(means, fine_budget, coarse, cfg, seed=derive_seed(seed, 1))

    ledger = BudgetLedger()
    ledger.add(eps_stage, budget.delta)
    ledger.add(eps_stage, 0.0)
    total_eps, total_delta = ledger.total()
    bias_bound = truncation_bias_bound(m, params.k, rho - cfg.u_err)
    report.epsilon = total_eps
    report.delta = total_delta
    report.seed = seed
    report.params.update(
        {
            "constant_c": DEFAULT_RHO_CONSTANT,
            "coarse_bucket": coarse.bucket,
            "ledger": ledger.entries,
            "bias_bound_applicable": bias_bound is not None,
        }
    )
    return report
