"""Univariate person-level mean estimator: private-histogram coarse range
estimation followed by truncate-and-noise fine estimation.

The stages read a column of per-person means, shape (n,), each the average
of m samples; ``estimate_mean_1d`` takes it from its ``PersonMeans``.  Each
stage returns the values it releases: ``range_estimator`` the winning
bucket (lo, hi), whose midpoint is mu_coarse, read from the edges, noisy
counts and release mask of ``mechanisms.private_histogram``; and
``fine_estimate_1d`` the estimate and its Laplace scale.

Convention used throughout: a coarse run with bucket width r guarantees
|mu_coarse - mu| < 2r, so a caller wanting coarse accuracy u picks width
r = u / 2.  The end-to-end pipeline targets u = 16/sqrt(m).
"""

from __future__ import annotations

import math
import time

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
from .mechanisms import BudgetLedger, laplace_noise, private_histogram

__all__ = [
    "range_estimator",
    "fine_estimate_1d",
    "choose_rho_1d",
    "coarse_width",
    "estimate_mean_1d",
    "DEFAULT_RHO_CONSTANT",
]

# Multiplier in choose_rho_1d.  With the default coarse accuracy u = 16/sqrt(m)
# this keeps rho > u across the acceptance grid; recorded in every report.
DEFAULT_RHO_CONSTANT = 4.0


def range_estimator(
    means: np.ndarray, m: int, budget: PrivacyBudget, r: float, R: float, seed: Seed
) -> tuple:
    """Histogram the per-person averages ``means`` (shape (n,), m samples
    each) over width-r buckets and return the heaviest released bucket
    (lo, hi); its midpoint is within 2r of the mean.

    Reads the three values ``private_histogram(means, r, R, ...)`` returns:
    the bucket with the largest noisy count among the released ones wins,
    and its two edges are the result.  budget.delta selects the histogram
    variant (pure vs stability).  Ties go to the bucket with the smaller
    left endpoint.  Requires r < R and sqrt(m) * r >= 2 (the theory's n_0
    degenerates as sqrt(m) * r -> 1).
    """
    if means.ndim != 1:
        raise ParameterError("range_estimator is univariate: means must have shape (n,)")
    if not (0 < r < R):
        raise ParameterError(f"need 0 < r < R, got r={r}, R={R}")
    if math.sqrt(m) * r < 2:
        raise ParameterError(
            f"need sqrt(m) * r >= 2 for a meaningful coarse step, got {math.sqrt(m) * r:.3f}"
        )
    edges, noisy_counts, released = private_histogram(means, r, R, budget, seed)
    if not released.any():
        raise EstimationFailedError("all histogram buckets were suppressed")
    # argmax takes the first max: the smallest left endpoint
    best = int(np.argmax(np.where(released, noisy_counts, -np.inf)))
    return float(edges[best]), float(edges[best + 1])


def fine_estimate_1d(
    means: np.ndarray, budget: PrivacyBudget, mu_coarse: float, rho: float, u_err: float, seed: Seed
) -> tuple:
    """Truncate the per-person averages ``means`` (shape (n,)) to
    mu_coarse +- rho and release their mean with Laplace(2 rho / (n epsilon))
    noise (pure DP).  ``u_err`` is the coarse stage's accuracy claim, which
    rho must exceed.  Returns (estimate, noise_scale)."""
    if means.ndim != 1:
        raise ParameterError("fine_estimate_1d is univariate: means must have shape (n,)")
    if not budget.is_pure:
        raise ParameterError("fine estimation adds Laplace noise; budget must be pure (delta = 0)")
    if not (rho > u_err >= 0):
        raise ParameterError(f"need rho > u_err >= 0, got rho={rho}, u_err={u_err}")
    truncated = trunc_1d(means, mu_coarse - rho, mu_coarse + rho)
    scale = 2 * rho / (means.shape[0] * budget.epsilon)
    return float(truncated.mean()) + laplace_noise(scale, seed), scale


def choose_rho_1d(n: int, m: int, epsilon: float, beta: float, k: float) -> float:
    """Truncation radius c * (sqrt((k-1) ln m / m) + (n eps / ln(1/beta))^{1/k} / m^{1-1/k})
    with c = DEFAULT_RHO_CONSTANT."""
    if n <= 0 or m <= 0 or epsilon <= 0 or not (0 < beta < 1) or k <= 2:
        raise ParameterError("choose_rho_1d arguments out of range")
    concentration = math.sqrt((k - 1) * math.log(m) / m)
    noise_tradeoff = (n * epsilon / math.log(1 / beta)) ** (1 / k) / m ** (1 - 1 / k)
    return DEFAULT_RHO_CONSTANT * (concentration + noise_tradeoff)


def coarse_width(m: int) -> float:
    """The coarse stage's bucket width at m samples a person: half the
    accuracy target u = 16/sqrt(m).  ``range_estimator`` needs it below R."""
    return 16 / math.sqrt(m) / 2


def estimate_mean_1d(
    data: PersonMeans, budget: PrivacyBudget, params: ProblemParams, seed: Seed
) -> EstimateReport:
    """Full univariate pipeline: a 50/50 budget split between the coarse range
    estimator and the fine truncate-and-noise step (basic composition).

    Coarse accuracy target is u = 16/sqrt(m), realized with bucket width
    u/2; the fine step truncates to choose_rho_1d's radius.  Pure budgets
    run the pure histogram; delta > 0 switches to the stability variant
    (fine noise stays Laplace, so all of delta is spent coarse).
    """
    if data.means.shape[1] != 1:
        raise ParameterError("estimate_mean_1d is univariate (d = 1)")
    t0 = time.perf_counter()
    ledger = BudgetLedger()
    estimate, fields = _estimate_column(data.means[:, 0], data.m, budget, params, seed, ledger)
    return ledger.report(estimate, seed, t0, **fields)


def _estimate_column(
    means: np.ndarray,
    m: int,
    budget: PrivacyBudget,
    params: ProblemParams,
    seed: Seed,
    ledger: BudgetLedger,
) -> tuple:
    """The pipeline of ``estimate_mean_1d`` on one column of per-person means.

    Each stage runs on the budget that ``ledger.add`` charges for it.
    Returns (estimate, fields): the released value and the report fields of
    ``estimate_mean_1d`` other than the ledger.
    """
    eps_stage = budget.epsilon / 2
    r = coarse_width(m)
    lo, hi = range_estimator(
        means, m, ledger.add(eps_stage, budget.delta), r, params.range_R, derive_seed(seed, 0)
    )
    mu_coarse = (lo + hi) / 2

    rho = choose_rho_1d(means.shape[0], m, eps_stage, params.beta, params.k)
    u_err = 2 * r
    estimate, scale = fine_estimate_1d(
        means, ledger.add(eps_stage), mu_coarse, rho, u_err, derive_seed(seed, 1)
    )
    return estimate, {
        "rho": rho,
        "u_err": u_err,
        "mu_coarse": mu_coarse,
        "noise_scale": scale,
        "constant_c": DEFAULT_RHO_CONSTANT,
        "coarse_bucket": (lo, hi),
        "bias_bound_applicable": truncation_bias_bound(m, params.k, rho - u_err) is not None,
    }
