"""High-dimensional approximate-DP estimators: coordinate-wise coarse
estimation, the clip-and-noise subroutine, and the single- and two-round
pipelines built from them.

The stages read an (n, d) array of per-person means, each the average of m
samples; each estimator computes it once from its dataset.

Logs in the radius formulas are natural; "log(1/delta)" is ln(1/delta).
"""

from __future__ import annotations

import math
import time

import numpy as np

from .core import (
    ClipBall,
    EstimateReport,
    EstimationFailedError,
    ParameterError,
    PersonDataset,
    PrivacyBudget,
    ProblemParams,
    Seed,
    derive_rng,
    derive_seed,
)
from .clipping import clip_ball
from .est1d import range_estimator
from .mechanisms import BudgetLedger

__all__ = [
    "two_round_radii",
    "single_round_rho",
    "coarse_estimate_hd",
    "clip_and_noise",
    "estimate_single_round",
    "estimate_two_round",
]

DEFAULT_SINGLE_ROUND_CONSTANT = 4.0


def two_round_radii(n: int, m: int, d: int, k: float, epsilon: float, delta: float) -> tuple:
    """(rho1, rho2) for the two-round estimator.

    rho1 = max(sqrt(d/m), n^{1/k} eps^{1/k} d^{1/2 - 1/(2k)} / (ln(1/delta)^{1/(2k)} m^{1-1/k}))
    and rho2 replaces the dimension exponent with 1/2 - 1/k, so rho1 >= rho2.
    ``n`` is the per-round group size, (epsilon, delta) the total budget.
    """
    if min(n, m, d) < 1 or epsilon <= 0 or not (0 < delta < 1) or k <= 2:
        raise ParameterError("two_round_radii arguments out of range")
    base = math.sqrt(d / m)
    shared = (n * epsilon) ** (1 / k) / (math.log(1 / delta) ** (1 / (2 * k)) * m ** (1 - 1 / k))
    rho1 = max(base, shared * d ** (0.5 - 1 / (2 * k)))
    rho2 = max(base, shared * d ** (0.5 - 1 / k))
    return rho1, rho2


def single_round_rho(n: int, m: int, d: int, k: float, epsilon: float, delta: float) -> float:
    """Clip radius for the single-round estimator:

    c0 * (sqrt(d ln m / m)
          + sqrt(d)^{(k-1)/k} eps^{1/k} n^{1/k} / (m^{1-1/k} ln(1/delta)^{1/(2k)}))

    with c0 = DEFAULT_SINGLE_ROUND_CONSTANT.
    """
    if min(n, m, d) < 1 or epsilon <= 0 or not (0 < delta < 1) or k <= 2:
        raise ParameterError("single_round_rho arguments out of range")
    concentration = math.sqrt(d * math.log(m) / m)
    tradeoff = (
        math.sqrt(d) ** ((k - 1) / k)
        * (n * epsilon) ** (1 / k)
        / (m ** (1 - 1 / k) * math.sqrt(math.log(1 / delta)) ** (1 / k))
    )
    return DEFAULT_SINGLE_ROUND_CONSTANT * (concentration + tradeoff)


def coarse_estimate_hd(
    means: np.ndarray, m: int, budget: PrivacyBudget, r: float, seed: Seed, range_R: float
) -> np.ndarray:
    """Coordinate-wise coarse mean of the (n, d) per-person means ``means``
    (m samples each) with L2 error target r (approx DP only).

    Each coordinate runs the univariate range estimator on its column at
    accuracy r/sqrt(d) (bucket width half that).  The per-coordinate budget
    is whichever split grants the larger epsilon, each sized so its
    composition formula totals (eps, delta):

    * basic: (eps/d, delta/d) each;
    * advanced, used once d > 6 ln(2/delta): (eps / sqrt(6 d ln(2/delta)),
      delta/(2d)) each with slack delta0 = delta/2.

    A coordinate whose histogram releases no bucket raises
    EstimationFailedError naming the stage and the coordinate.
    """
    if budget.delta <= 0:
        raise ParameterError("coarse_estimate_hd requires delta > 0")
    d = means.shape[1]
    if d > 6 * math.log(2 / budget.delta):
        eps0 = budget.epsilon / math.sqrt(6 * d * math.log(2 / budget.delta))
        coord_budget = PrivacyBudget(eps0, budget.delta / (2 * d))
    else:
        coord_budget = PrivacyBudget(budget.epsilon / d, budget.delta / d)
    width = r / math.sqrt(d) / 2
    out = np.empty(d)
    for j in range(d):
        try:
            coarse = range_estimator(
                means[:, j], m, coord_budget, r=width, R=range_R, seed=derive_seed(seed, j)
            )
        except EstimationFailedError as exc:
            raise EstimationFailedError(f"coarse stage, coordinate {j}: {exc}") from exc
        out[j] = coarse.mu_coarse
    return out


def clip_and_noise(
    means: np.ndarray, budget: PrivacyBudget, ball: ClipBall, seed: Seed
) -> np.ndarray:
    """Clip the (n, d) per-person means to ``ball``, average, add Gaussian noise.

    Noise is calibrated with the source's printed sensitivity proxy
    2 sqrt(d) rho (per-coordinate stddev 2 sqrt(d) rho sqrt(2 ln(4/delta)) / (n eps)).
    The measured L2 sensitivity of the pre-noise average is 2 rho / n.
    """
    if budget.delta <= 0:
        raise ParameterError("clip_and_noise requires delta > 0")
    n, d = means.shape
    if ball.d != d:
        raise ParameterError(f"ball dim {ball.d} != data dim {d}")
    clipped = clip_ball(means, ball)
    avg = clipped.mean(axis=0)
    proxy = 2.0 * math.sqrt(d) * ball.radius
    sigma = proxy * math.sqrt(2 * math.log(4 / budget.delta)) / (n * budget.epsilon)
    rng = derive_rng(seed)
    return avg + sigma * rng.standard_normal(d)


def _clip_rounds(
    groups: list, m: int, budgets: list, radii: list, params: ProblemParams, seed: Seed
) -> tuple:
    """The iterative clip-and-noise loop shared by both estimators (CoinPress,
    Biswas, Dong, Kamath & Ullman 2020) with T = len(radii) rounds.

    ``groups`` holds (n_t, d) per-person means of m samples each.  Stage 0 is
    the coarse estimate of groups[0] to L2 accuracy 16 sqrt(d/m); round
    t = 1..T clips groups[t] to radii[t - 1] around the previous output and
    adds noise.  Stage t draws from derive_seed(seed, t) and charges
    budgets[t] to the ledger as it runs.  Returns (centers, ledger), where
    centers[t] is stage t's output and centers[T] the release.
    """
    ledger = BudgetLedger()
    d = groups[0].shape[1]
    centers = [
        coarse_estimate_hd(
            groups[0], m, budgets[0], 16 * math.sqrt(d / m), derive_seed(seed, 0), params.range_R
        )
    ]
    ledger.add(budgets[0].epsilon, budgets[0].delta)
    for t, rho in enumerate(radii, start=1):
        ball = ClipBall(centers[-1], rho)
        centers.append(clip_and_noise(groups[t], budgets[t], ball, derive_seed(seed, t)))
        ledger.add(budgets[t].epsilon, budgets[t].delta)
    return centers, ledger


def _report(estimate, ledger: BudgetLedger, seed: Seed, t0: float, params: dict) -> EstimateReport:
    total_eps, total_delta = ledger.total()
    return EstimateReport(
        estimate=estimate,
        epsilon=total_eps,
        delta=total_delta,
        seed=seed,
        wall_time_ms=(time.perf_counter() - t0) * 1e3,
        params={**params, "ledger": ledger.entries},
    )


def estimate_single_round(
    data: PersonDataset, budget: PrivacyBudget, params: ProblemParams, seed: Seed
) -> EstimateReport:
    """Coarse estimate to 16 sqrt(d/m), then one clip-and-noise round (T = 1).

    Both stages see all people; budget splits (eps/2, delta/2) + (eps/2, delta/2)
    by basic composition.  Stage budgets feed the rho formula.
    """
    if budget.delta <= 0:
        raise ParameterError("estimate_single_round requires delta > 0")
    t0 = time.perf_counter()
    means = data.person_means()
    stage = PrivacyBudget(budget.epsilon / 2, budget.delta / 2)
    rho = single_round_rho(data.n, data.m, data.d, params.k, stage.epsilon, stage.delta)
    (u1, estimate), ledger = _clip_rounds(
        [means, means], data.m, [stage, stage], [rho], params, seed
    )
    return _report(
        estimate, ledger, seed, t0, {"rho": rho, "u1": u1, "c0": DEFAULT_SINGLE_ROUND_CONSTANT}
    )


def estimate_two_round(
    data: PersonDataset, budget: PrivacyBudget, params: ProblemParams, seed: Seed
) -> EstimateReport:
    """Two-round clip-and-noise (T = 2): thirds Y/Z/V, coarse on Y, clip rounds on Z and V.

    u1 = coarse(Y; eps/2, delta/2), u2 = clip_and_noise(Z; eps/4, delta/4, rho1, u1),
    mu = clip_and_noise(V; eps/4, delta/4, rho2, u2); totals exactly (eps, delta).
    People beyond a multiple of 3 are dropped and recorded.
    """
    if budget.delta <= 0:
        raise ParameterError("estimate_two_round requires delta > 0")
    t0 = time.perf_counter()
    n = data.n // 3
    if n < 1:
        raise ParameterError("need at least 3 people")
    rho1, rho2 = two_round_radii(n, data.m, data.d, params.k, budget.epsilon, budget.delta)
    means = data.person_means()
    groups = [means[i * n : (i + 1) * n] for i in range(3)]
    half = PrivacyBudget(budget.epsilon / 2, budget.delta / 2)
    quarter = PrivacyBudget(budget.epsilon / 4, budget.delta / 4)
    (u1, u2, estimate), ledger = _clip_rounds(
        groups, data.m, [half, quarter, quarter], [rho1, rho2], params, seed
    )
    return _report(
        estimate,
        ledger,
        seed,
        t0,
        {"rho1": rho1, "rho2": rho2, "u1": u1, "u2": u2, "dropped_people": data.n - 3 * n},
    )
