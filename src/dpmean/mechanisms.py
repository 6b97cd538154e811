"""Differential-privacy primitives: Laplace noise, private histograms, the
exponential mechanism, and a composition ledger.

Constants for the stability histogram follow the standard instantiation
(threshold 1 + 2 ln(2/delta)/epsilon); the source guarantees are asymptotic,
so these are our pinned choices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .core import ParameterError, PrivacyBudget, Seed, derive_rng

__all__ = [
    "laplace_noise",
    "HistogramSpec",
    "NoisyHistogram",
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


@dataclass(frozen=True)
class HistogramSpec:
    """Contiguous width-r buckets covering [-R-2r, R+2r), half-open on the right.

    ``half_range`` is rounded up to a multiple of ``bucket_width`` so bucket
    edges land on integer multiples of r (including 0).
    """

    bucket_width: float
    half_range: float

    def __post_init__(self):
        if not (self.bucket_width > 0):
            raise ParameterError(f"bucket_width must be > 0, got {self.bucket_width}")
        if not (self.half_range > 0):
            raise ParameterError(f"half_range must be > 0, got {self.half_range}")

    @classmethod
    def build(cls, r: float, R: float) -> "HistogramSpec":
        if not (r > 0 and R > 0):
            raise ParameterError("need r > 0 and R > 0")
        steps = math.ceil(R / r - 1e-12)
        return cls(bucket_width=float(r), half_range=float(steps * r))

    @property
    def num_buckets(self) -> int:
        return 2 * (round(self.half_range / self.bucket_width) + 2)

    @property
    def edges(self) -> np.ndarray:
        lo = -self.half_range - 2 * self.bucket_width
        return lo + self.bucket_width * np.arange(self.num_buckets + 1)

    @property
    def lo(self) -> float:
        return -self.half_range - 2 * self.bucket_width

    @property
    def hi(self) -> float:
        return self.half_range + 2 * self.bucket_width

    def bucket_index(self, x: np.ndarray) -> np.ndarray:
        """Bucket index per point; -1 for points outside [lo, hi)."""
        x = np.asarray(x, dtype=np.float64)
        idx = np.floor((x - self.lo) / self.bucket_width).astype(np.int64)
        idx[(x < self.lo) | (x >= self.hi)] = -1
        return idx


@dataclass
class NoisyHistogram:
    """Private histogram release: noisy counts plus a per-bucket release mask."""

    counts: np.ndarray
    released: np.ndarray
    spec: HistogramSpec
    n_dropped: int = 0

    def __post_init__(self):
        if len(self.counts) != self.spec.num_buckets:
            raise ParameterError("counts length does not match bucket grid")


def private_histogram(
    points: Sequence[float], spec: HistogramSpec, budget: PrivacyBudget, seed: Seed
) -> NoisyHistogram:
    """Pure or stability-based private histogram over ``spec``'s buckets.

    Pure mode (delta = 0): Laplace(2/epsilon) noise on every bucket, all
    released.  Approx mode (delta > 0): Laplace(2/epsilon) only on nonempty
    buckets, releasing those whose noisy count clears
    1 + 2 ln(2/delta)/epsilon; empty buckets are never released.  Points
    outside the grid are dropped and counted in ``n_dropped``.
    """
    points = np.asarray(points, dtype=np.float64)
    idx = spec.bucket_index(points)
    dropped = int((idx < 0).sum())
    counts = np.bincount(idx[idx >= 0], minlength=spec.num_buckets).astype(np.float64)
    rng = derive_rng(seed)
    noise = _laplace(rng, 2.0 / budget.epsilon, spec.num_buckets)
    if budget.is_pure:
        noisy = counts + noise
        released = np.ones(spec.num_buckets, dtype=bool)
    else:
        nonzero = counts > 0
        noisy = np.where(nonzero, counts + noise, 0.0)
        threshold = 1.0 + 2.0 * math.log(2.0 / budget.delta) / budget.epsilon
        released = nonzero & (noisy >= threshold)
        noisy = np.where(released, noisy, 0.0)
    return NoisyHistogram(counts=noisy, released=released, spec=spec, n_dropped=dropped)


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
    """Basic composition over a sequence of (epsilon_i, delta_i) charges:
    the total sums both coordinates."""

    entries: list = field(default_factory=list)

    def add(self, epsilon: float, delta: float = 0.0) -> None:
        if epsilon < 0 or delta < 0:
            raise ParameterError("ledger entries must be nonnegative")
        self.entries.append((float(epsilon), float(delta)))

    def total(self) -> tuple:
        """Composed (epsilon, delta); (0.0, 0.0) for an empty ledger."""
        return (math.fsum(e for e, _ in self.entries), math.fsum(d for _, d in self.entries))
