"""Pure-DP high-dimensional estimator: projected truncated median-of-means
comparisons between candidate means and their local covers, an exact greedy
corruption-count score, and exponential-mechanism selection.

The stages read an (n, d) array of per-person means, each the average of m
samples; ``estimate_pure_full`` computes it once from its dataset.

A comparison's subsample means are block means of truncated projections.
Projection is linear, so each candidate block-averages its people once and
projects the k_mom block means onto all its challengers.  Truncation at
radius rho around p's projection touches only people with ||x - p|| > rho,
because |<dir, x - p>| <= ||x - p|| for a unit direction; those people
stand in as p in the block average and are projected one by one, to add
their truncated projections to their block means.

The candidate enumeration is exponential in d by design; d > 4 is rejected.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .core import (
    ConfigurationError,
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
from .est1d import _estimate_column
from .mechanisms import exponential_mechanism

__all__ = [
    "CoverGrid",
    "ScoreRecord",
    "comparison_rho",
    "mom_subsample_count",
    "global_cover",
    "local_cover",
    "score_candidate",
    "fine_est_pure",
    "estimate_pure_full",
    "DEFAULT_COMPARISON_RHO_CONSTANT",
]

# Truncation-radius multiplier for projected comparisons.  Large enough that
# the clipped-mean case analysis (the q <= 1/32 condition) holds comfortably
# on the acceptance grid.
DEFAULT_COMPARISON_RHO_CONSTANT = 8.0

MAX_DIMENSION = 4


def comparison_rho(m: int, k: float, alpha: float) -> float:
    """Projected truncation radius c * (sqrt((k-1) ln m / m) + 1/(m alpha^{1/(k-1)}))
    with c = DEFAULT_COMPARISON_RHO_CONSTANT."""
    if m < 1 or k <= 2 or alpha <= 0:
        raise ParameterError("comparison_rho arguments out of range")
    concentration = math.sqrt((k - 1) * math.log(m) / m)
    return DEFAULT_COMPARISON_RHO_CONSTANT * (concentration + 1.0 / (m * alpha ** (1 / (k - 1))))


def mom_subsample_count(beta: float) -> int:
    """ceil(10 ln(1/beta)) subsamples, bumped to odd so the median is a single
    order statistic and the flip-margin count is exact in both directions."""
    if not (0 < beta < 1):
        raise ParameterError(f"beta must be in (0, 1), got {beta}")
    count = math.ceil(10 * math.log(1 / beta))
    return count + 1 if count % 2 == 0 else count


@dataclass(frozen=True)
class CoverGrid:
    """A finite set of candidate points with its grid granularity and origin."""

    points: np.ndarray  # (N, d)
    granularity: float
    origin: np.ndarray  # (d,)

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class ScoreRecord:
    """Exponential-mechanism score of one candidate: min corruption margin
    over its local cover, clamped to [0, n * alpha]."""

    candidate: np.ndarray
    score: float
    cap: float

    def __post_init__(self):
        if not (0 <= self.score <= self.cap):
            raise ParameterError("score out of [0, cap]")


def _axis_grid(center: float, half_width: float, intervals: int) -> np.ndarray:
    return center + np.linspace(-half_width, half_width, intervals + 1)


def _product_grid(axes: list) -> np.ndarray:
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def global_cover(alpha: float, d: int) -> CoverGrid:
    """Per-coordinate grid {-alpha, ..., alpha} with about sqrt(d) + 1 points
    per axis (exact when sqrt(d) is an integer; otherwise rounded up)."""
    if alpha <= 0 or d < 1:
        raise ParameterError("need alpha > 0 and d >= 1")
    intervals = math.ceil(math.sqrt(d))
    axes = [_axis_grid(0.0, alpha, intervals) for _ in range(d)]
    return CoverGrid(
        points=_product_grid(axes), granularity=2 * alpha / intervals, origin=np.zeros(d)
    )


def local_cover(p: np.ndarray, alpha: float, d: int) -> CoverGrid:
    """Challenger grid around p: per-coordinate step ~ alpha/(4 sqrt(d)) over
    p +- 2 alpha, minus the L2 ball of radius alpha around p."""
    if alpha <= 0 or d < 1:
        raise ParameterError("need alpha > 0 and d >= 1")
    p = np.atleast_1d(np.asarray(p, dtype=np.float64))
    intervals = math.ceil(16 * math.sqrt(d))
    axes = [_axis_grid(p[j], 2 * alpha, intervals) for j in range(d)]
    pts = _product_grid(axes)
    keep = np.linalg.norm(pts - p, axis=1) > alpha
    return CoverGrid(points=pts[keep], granularity=4 * alpha / intervals, origin=p)


def _flip_costs(block_means: np.ndarray, thresholds: np.ndarray, block: int, rho: float):
    """Greedy corruption counts to push each column's (odd-count) median above
    its threshold.

    ``block_means`` is (k_mom, nq); column j flips when more than half its
    entries exceed thresholds[j].  Pushing one subsample mean up costs
    ceil(shift * block / (2 rho)) batch corruptions, at least 1; the greedy
    takes the cheapest subsamples first, which is optimal for this statistic.
    Returns (margins, already_flipped) where already_flipped marks columns
    whose median is already above the threshold.
    """
    k_mom, _ = block_means.shape
    majority = (k_mom + 1) // 2
    above = block_means > thresholds
    already = above.sum(axis=0) >= majority
    shift = thresholds - block_means  # >= 0 where not above
    costs = np.where(above, np.inf, np.maximum(1, np.ceil(shift * block / (2 * rho))))
    costs.sort(axis=0)
    csum = np.cumsum(np.where(np.isinf(costs), 0.0, costs), axis=0)
    need = majority - above.sum(axis=0)
    margins = np.where(already, 0.0, csum[np.clip(need, 1, k_mom) - 1, np.arange(costs.shape[1])])
    return margins, already


def _project_batch(
    means: np.ndarray,
    m: int,
    p: np.ndarray,
    challengers: np.ndarray,
    alpha: float,
    beta: float,
    seed: Seed,
    k: float,
):
    """Projection step of the comparison of p against every challenger at once.

    The comparison projects the seeded permutation of the per-person averages
    onto each direction (q - p)/||q - p||, truncates at comparison_rho around
    p's projection, and averages contiguous blocks.  Returns (block_means,
    midpoints, block, rho): block_means is (k_mom, nq) and midpoints[j] the
    p/q midpoint on direction j; p wins challenger j when the median of
    column j lands at or below midpoints[j] (p0 < q0 always, by construction
    of the direction).

    Block means commute with projection, so the (used, d) people are
    block-averaged first and the (k_mom, d) result is projected.  Truncation
    is the only non-linear step, and |<dir, x - p>| <= ||x - p||, so a person
    within rho of p is never truncated on any direction.  The people with
    ||x - p|| > rho (1 - 1e-12) stand in as p in the block average, so the
    block sums only ever hold values within rho of p and one extreme person
    cannot swamp the rest of their block; each is then projected on its own
    and adds (truncated projection - p0) / block to its block's row.  The
    1e-12 slack sends a person whose rounded projection could still land
    past p0 +- rho down that explicit path.  The cost is O(used d + far nq)
    rather than O(used nq).
    """
    n = means.shape[0]
    k_mom = mom_subsample_count(beta)
    if n < k_mom:
        raise ConfigurationError(f"need at least {k_mom} people for {k_mom} subsamples, got {n}")
    block = n // k_mom
    used = block * k_mom
    rho = comparison_rho(m, k, alpha)

    diff = challengers - p
    norms = np.linalg.norm(diff, axis=1)
    if np.any(norms == 0):
        raise ParameterError("challenger equals candidate")
    dirs = diff / norms[:, None]  # (nq, d)
    p0 = dirs @ p  # (nq,)
    q0 = p0 + norms  # <dir, q> = <dir, p> + ||q - p||
    midpoints = (p0 + q0) / 2

    perm = derive_rng(seed).permutation(n)[:used]
    x = means[perm]  # (used, d)
    # A mean near the float limit overflows to an infinite distance: far.
    with np.errstate(over="ignore"):
        far = np.flatnonzero(np.linalg.norm(x - p, axis=1) > rho * (1 - 1e-12))
    truncated = np.clip(x[far] @ dirs.T, p0 - rho, p0 + rho)  # (far, nq)
    x[far] = p
    block_means = x.reshape(k_mom, block, -1).mean(axis=1) @ dirs.T  # (k_mom, nq)
    np.add.at(block_means, far // block, (truncated - p0) / block)
    return block_means, midpoints, block, rho


def score_candidate(
    means: np.ndarray, m: int, p: np.ndarray, alpha: float, beta: float, seed: Seed, k: float
) -> ScoreRecord:
    """Score of candidate p on the (n, d) per-person means ``means`` (m
    samples each): zero as soon as any local-cover challenger beats p,
    otherwise the smallest flip margin over the cover, capped at n * alpha.

    Changing one person's batch moves the score by at most 1.
    """
    p = np.atleast_1d(np.asarray(p, dtype=np.float64))
    # Post-recentering candidates satisfy ||p||_inf <= alpha_global; when the
    # pipeline scores at the reduced target 8/9 * alpha_global, that reads as
    # 9 alpha / 8 in terms of the alpha seen here.
    if np.max(np.abs(p)) > 9 * alpha / 8 * (1 + 1e-9):
        raise ParameterError("candidate must satisfy ||p||_inf <= alpha (post-recentering)")
    n, d = means.shape
    cover = local_cover(p, alpha, d)
    assert len(cover) > 0
    cap = n * alpha
    block_means, midpoints, block, rho = _project_batch(
        means, m, p, cover.points, alpha, beta, seed, k
    )
    # margins[j] is the greedy number of whole-batch corruptions that make p
    # lose to challenger j when p currently wins.
    margins, q_wins = _flip_costs(block_means, midpoints, block, rho)
    if q_wins.any():
        score = 0.0
    else:
        score = min(float(margins.min()), cap)
    return ScoreRecord(candidate=p, score=score, cap=cap)


def fine_est_pure(
    means: np.ndarray, m: int, params: ProblemParams, epsilon: float, seed: Seed
) -> np.ndarray:
    """Exponential-mechanism fine estimation over the global cover, on the
    (n, d) per-person means ``means`` of m samples each.

    Assumes the mean satisfies ||mu||_inf <= alpha (callers recenter with a
    coarse estimate first).  Each candidate is scored at target error
    8 alpha / 9 and per-comparison failure beta / (2 |cover|); the mechanism
    samples with sensitivity 1 and budget epsilon.
    """
    d = means.shape[1]
    if d > MAX_DIMENSION:
        raise ConfigurationError(
            f"d = {d} rejected: the candidate cover grows like (sqrt(d))^d "
            f"and is only tractable for d <= {MAX_DIMENSION}"
        )
    if epsilon <= 0:
        raise ParameterError("epsilon must be > 0")
    cover = global_cover(params.alpha, d)
    alpha_test = 8 * params.alpha / 9
    beta_test = params.beta / (2 * len(cover))

    def scored():
        for i, point in enumerate(cover.points):
            rec = score_candidate(
                means, m, point, alpha_test, beta_test, derive_seed(seed, 1, i), params.k
            )
            yield i, rec.score

    choice = exponential_mechanism(scored(), sensitivity=1.0, epsilon=epsilon, seed=derive_seed(seed, 2))
    return cover.points[choice].copy()


def estimate_pure_full(
    data: PersonDataset, budget: PrivacyBudget, params: ProblemParams, seed: Seed
) -> EstimateReport:
    """Full pure-DP pipeline over 2n people; ``budget`` must be pure (delta = 0).

    The per-person means are computed once.  The first half of them runs the
    univariate pipeline per coordinate (budget epsilon/d, failure beta/(2d)
    each) to get mu_coarse with L-inf error alpha; the second half is
    recentred as means - mu_coarse and handed to fine_est_pure.  The two
    phases touch disjoint people, so the total budget is epsilon by parallel
    composition.  Raises ParameterError when budget.delta > 0: the estimator
    spends no delta, so a requested delta would be dropped rather than used.
    """
    if not budget.is_pure:
        raise ParameterError(f"pure_dp spends no delta; got delta = {budget.delta!r}, need 0")
    epsilon = budget.epsilon
    t0 = time.perf_counter()
    half = data.n // 2
    if half < 1:
        raise ParameterError("need at least 2 people")
    dropped = data.n - 2 * half
    d = data.d
    means = data.person_means()

    coord_budget = PrivacyBudget(epsilon / d, 0.0)
    coord_params = ProblemParams(
        k=params.k, alpha=params.alpha, beta=params.beta / (2 * d), range_R=params.range_R
    )
    mu_coarse = np.empty(d)
    for j in range(d):
        try:
            report = _estimate_column(
                means[:half, j], data.m, coord_budget, coord_params, derive_seed(seed, 0, j)
            )
        except EstimationFailedError as exc:
            raise EstimationFailedError(f"coarse stage, coordinate {j}: {exc}") from exc
        mu_coarse[j] = report.estimate[0]

    recentered = means[half : 2 * half] - mu_coarse
    fine_params = ProblemParams(
        k=params.k, alpha=params.alpha, beta=params.beta / 2, range_R=params.range_R
    )
    shifted = fine_est_pure(recentered, data.m, fine_params, epsilon, derive_seed(seed, 1))
    return EstimateReport(
        estimate=shifted + mu_coarse,
        epsilon=epsilon,
        delta=0.0,
        seed=seed,
        wall_time_ms=(time.perf_counter() - t0) * 1e3,
        params={
            "mu_coarse": mu_coarse,
            "dropped_people": dropped,
            "composition": "parallel over disjoint people",
            "phase_epsilons": [epsilon, epsilon],
        },
    )
