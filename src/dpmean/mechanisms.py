"""Differential-privacy primitives: Laplace noise, private histograms, the
exponential mechanism, and a composition ledger.

Every estimator stage runs on the budget that ``BudgetLedger.add`` charges
to the rows it reads, and ``BudgetLedger.report`` builds every report.

Constants for the stability histogram follow the standard instantiation
(threshold 1 + 2 ln(2/delta)/epsilon); the source guarantees are asymptotic,
so these are our pinned choices.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .core import EstimateReport, ParameterError, PrivacyBudget, Seed, derive_rng

__all__ = [
    "laplace_noise",
    "private_histogram",
    "exponential_mechanism",
    "BudgetLedger",
]


def _laplace(rng: np.random.Generator, scale: float, size=None) -> np.ndarray | float:
    # Inverse-CDF from a single uniform per draw keeps the stream accounting
    # trivial: one uniform consumed per variate.  A uniform of exactly 0.0
    # gives 2|u| = 1 and log1p(-1) = -inf, so 2|u| is capped at 1 - 2**-53;
    # every other uniform has 2|u| <= 1 - 2**-52 and its draw is unchanged.
    u = rng.random(size) - 0.5
    return -scale * np.sign(u) * np.log1p(-np.minimum(2.0 * np.abs(u), 1.0 - 2.0**-53))


def laplace_noise(scale: float, seed: Seed, size: int | None = None):
    """Zero-centered Laplace(scale) draw(s); scalar when ``size`` is None."""
    if not (scale > 0):
        raise ParameterError(f"scale must be > 0, got {scale}")
    rng = derive_rng(seed)
    out = _laplace(rng, scale, size)
    return float(out) if size is None else out


def private_histogram(
    points: Sequence[float], r: float, R: float, budget: PrivacyBudget, seed: Seed
) -> tuple:
    """Pure or stability-based private histogram of ``points`` over width-r
    buckets; returns (edges, noisy_counts, released).

    The grid: R is rounded up to a multiple of r, half_range = ceil(R/r) r,
    and the buckets tile [-half_range - 2r, half_range + 2r) with edges on
    integer multiples of r (0 among them), each half-open on the right.
    ``edges`` holds the 2 (half_range/r + 2) + 1 bucket boundaries,
    ``noisy_counts`` and ``released`` one entry per bucket.  Points outside
    the grid are not counted.

    Pure mode (delta = 0): Laplace(2/epsilon) noise on every bucket, all
    released.  Approx mode (delta > 0): Laplace(2/epsilon) only on nonempty
    buckets, releasing those whose noisy count clears
    1 + 2 ln(2/delta)/epsilon; empty buckets are never released, and a
    bucket not released has noisy count 0.
    """
    if not (r > 0 and R > 0):
        raise ParameterError("need r > 0 and R > 0")
    half_range = float(math.ceil(R / r - 1e-12) * r)
    num_buckets = 2 * (round(half_range / r) + 2)
    lo = -half_range - 2 * r
    hi = half_range + 2 * r
    edges = lo + r * np.arange(num_buckets + 1)
    points = np.asarray(points, dtype=np.float64)
    inside = points[(points >= lo) & (points < hi)]
    # A point an ulp below hi can round up to index num_buckets.
    idx = np.minimum(np.floor((inside - lo) / r), num_buckets - 1).astype(np.int64)
    counts = np.bincount(idx, minlength=num_buckets).astype(np.float64)
    rng = derive_rng(seed)
    noise = _laplace(rng, 2.0 / budget.epsilon, num_buckets)
    if budget.is_pure:
        noisy = counts + noise
        released = np.ones(num_buckets, dtype=bool)
    else:
        nonzero = counts > 0
        noisy = np.where(nonzero, counts + noise, 0.0)
        threshold = 1.0 + 2.0 * math.log(2.0 / budget.delta) / budget.epsilon
        released = nonzero & (noisy >= threshold)
        noisy = np.where(released, noisy, 0.0)
    return edges, noisy, released


def exponential_mechanism(
    scores: Iterable[tuple], sensitivity: float, epsilon: float, seed: Seed
):
    """Sample a candidate with probability proportional to exp(eps * score / (2 * sens)).

    Implemented by the Gumbel-argmax identity in one streaming pass: no
    normalization is materialized, so ``scores`` may be a generator.  Ties
    (a probability-zero event, but deterministic seeds can hit them in
    degenerate tests) go to the earliest candidate.
    """
    if not (sensitivity > 0):
        raise ParameterError(f"sensitivity must be > 0, got {sensitivity}")
    if not (epsilon >= 0):
        raise ParameterError(f"epsilon must be >= 0, got {epsilon}")
    rng = derive_rng(seed)
    best = None
    best_key = -np.inf
    count = 0
    for candidate, score in scores:
        key = epsilon * float(score) / (2.0 * sensitivity) + rng.gumbel()
        if key > best_key:
            best, best_key = candidate, key
        count += 1
    if count == 0:
        raise ParameterError("exponential mechanism needs at least one candidate")
    return best


@dataclass
class BudgetLedger:
    """Composition over (epsilon_i, delta_i, group_i) charges, where a group
    names the rows a stage reads: charges within a group sum (basic
    composition), and disjoint groups compose in parallel (McSherry 2009),
    so the total takes the largest group's epsilon and delta separately."""

    entries: list = field(default_factory=list)

    def add(self, epsilon: float, delta: float = 0.0, group: int = 0) -> PrivacyBudget:
        """Charge (epsilon, delta) to ``group`` and return it as the budget a
        stage runs on; ``PrivacyBudget`` rejects what is not a budget."""
        budget = PrivacyBudget(float(epsilon), float(delta))
        self.entries.append((budget.epsilon, budget.delta, group))
        return budget

    def total(self) -> tuple:
        """Composed (epsilon, delta): ``fsum`` within each group, the maximum
        across groups; (0.0, 0.0) for an empty ledger."""
        groups = {group for *_, group in self.entries}
        sums = [[math.fsum(e[i] for e in self.entries if e[2] == g) for g in groups] for i in (0, 1)]
        return (max(sums[0], default=0.0), max(sums[1], default=0.0))

    def report(self, estimate, seed: Seed, t0: float, **params) -> EstimateReport:
        """Report an estimate whose stages charged this ledger: its budget is
        ``total()``, ``params["ledger"]`` its entries, and its wall time runs
        from ``t0``, a ``time.perf_counter()`` reading."""
        wall_time_ms = (time.perf_counter() - t0) * 1e3
        params["ledger"] = self.entries
        return EstimateReport(estimate, *self.total(), seed, wall_time_ms, params)


def _coordinate_budget(budget: PrivacyBudget, d: int) -> PrivacyBudget:
    """The basic split's (eps/d, delta/d), each stepped down an ulp at a
    time until d copies ``fsum`` to at most the total: eps/d rounded up can
    overspend by an ulp (eps = 0.23, d = 3).  Halving a share is exact, so
    2d halves ``fsum`` to at most the total too."""
    shares = []
    for total in (budget.epsilon, budget.delta):
        share = total / d
        while math.fsum([share] * d) > total:
            share = math.nextafter(share, 0.0)
        shares.append(share)
    return PrivacyBudget(*shares)
