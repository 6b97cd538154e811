"""Domain types, deterministic randomness, and synthetic heavy-tailed generators.

``PersonDataset`` (n people x m samples x d dims) ingests and validates raw
samples.  Estimators read a person only through their average: each entry
point computes the (n, d) per-person means once and hands row slices and
column views of them, with m, to its stages.  Budgets are ``PrivacyBudget``s
and synthetic distributions ``SyntheticSpec``s.  All randomness flows
through ``derive_rng`` so that any operation is bit-reproducible given
(inputs, seed).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ConfigurationError",
    "ParameterError",
    "EstimationFailedError",
    "Seed",
    "derive_rng",
    "derive_seed",
    "stable_hash",
    "PersonDataset",
    "PrivacyBudget",
    "ProblemParams",
    "ClipBall",
    "SyntheticSpec",
    "EstimateReport",
    "sample_dataset",
    "sample_batch_means",
    "check_moment",
    "direction_grid",
    "gaussian_abs_moment",
    "student_t_abs_moment",
]


class ConfigurationError(ValueError):
    """A spec/config describes an invalid or unsupported setup."""


class ParameterError(ValueError):
    """An operation was called with arguments outside its contract."""


class EstimationFailedError(RuntimeError):
    """An estimator could not produce an output (e.g. all buckets suppressed)."""


# A seed is a plain unsigned 64-bit integer.  Sub-streams are derived with
# ``derive_rng(seed, *path)``; the path convention is documented there.
Seed = int


def derive_rng(seed: Seed, *path: int) -> np.random.Generator:
    """Derive an independent generator from ``seed`` and an integer path.

    The derivation is ``SeedSequence(seed, spawn_key=path)``, so distinct
    paths give statistically independent, parallel-safe streams and the
    mapping is stable across processes.  Conventions used in this package:
    estimators pass one path element per pipeline stage, the experiment
    harness uses ``(grid_point_hash, trial_index)``, and Monte Carlo loops
    use ``(chunk_index,)``.
    """
    if seed < 0 or seed >= 2**64:
        raise ParameterError(f"seed must fit in uint64, got {seed}")
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path))
    return np.random.default_rng(ss)


def derive_seed(seed: Seed, *path: int) -> Seed:
    """Derive a child seed (uint64) from ``seed`` and an integer path.

    Used when handing seeds to sub-operations so that pipeline stages draw
    from independent streams.  Same derivation tree as ``derive_rng``.
    """
    if seed < 0 or seed >= 2**64:
        raise ParameterError(f"seed must fit in uint64, got {seed}")
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def stable_hash(obj) -> int:
    """Platform-independent 63-bit hash of a JSON-serializable object."""
    blob = json.dumps(obj, sort_keys=True, default=str).encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big") >> 1


def gaussian_abs_moment(k: float) -> float:
    """E|N(0,1)|^k for real k > 0 (2^{k/2} Gamma((k+1)/2) / sqrt(pi))."""
    return 2 ** (k / 2) * math.gamma((k + 1) / 2) / math.sqrt(math.pi)


def student_t_abs_moment(k: float, df: float) -> float:
    """E|T_df|^k for a standard Student-t; finite only when df > k."""
    if df <= k:
        raise ConfigurationError(f"student-t moment of order {k} requires df > {k}, got {df}")
    return (
        df ** (k / 2)
        * math.gamma((k + 1) / 2)
        * math.gamma((df - k) / 2)
        / (math.sqrt(math.pi) * math.gamma(df / 2))
    )


@dataclass(frozen=True)
class PersonDataset:
    """n people, each holding m samples in R^d, as one (n, m, d) tensor."""

    values: np.ndarray

    def __post_init__(self):
        # Own a copy so freezing never mutates caller-held arrays.
        v = np.array(self.values, dtype=np.float64)
        if v.ndim == 2:  # univariate convenience: (n, m) -> (n, m, 1)
            v = v[:, :, None]
        if v.ndim != 3:
            raise ParameterError(f"values must have shape (n, m, d), got {v.shape}")
        if v.shape[0] < 1 or v.shape[1] < 1 or v.shape[2] < 1:
            raise ParameterError(f"need n, m, d >= 1, got shape {v.shape}")
        if not np.isfinite(v).all():
            raise ParameterError("dataset contains non-finite values")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def m(self) -> int:
        return self.values.shape[1]

    @property
    def d(self) -> int:
        return self.values.shape[2]

    def person_means(self) -> np.ndarray:
        """Per-person averages S_i = (1/m) sum_j X^{(i)}_j, shape (n, d)."""
        return self.values.mean(axis=1)


@dataclass(frozen=True)
class PrivacyBudget:
    """(epsilon, delta) privacy budget; pure DP iff delta == 0."""

    epsilon: float
    delta: float = 0.0

    def __post_init__(self):
        if not (self.epsilon > 0):
            raise ParameterError(f"epsilon must be > 0, got {self.epsilon}")
        if not (0 <= self.delta < 1):
            raise ParameterError(f"delta must be in [0, 1), got {self.delta}")

    @property
    def is_pure(self) -> bool:
        return self.delta == 0


@dataclass(frozen=True)
class ProblemParams:
    """Estimation problem parameters: moment order k, target (alpha, beta), range R."""

    k: float
    alpha: float
    beta: float
    range_R: float

    def __post_init__(self):
        if not (self.k > 2):
            raise ParameterError(f"k must be > 2, got {self.k}")
        if not (self.alpha > 0):
            raise ParameterError(f"alpha must be > 0, got {self.alpha}")
        if not (0 < self.beta < 1):
            raise ParameterError(f"beta must be in (0, 1), got {self.beta}")
        if not (self.range_R > 0):
            raise ParameterError(f"range_R must be > 0, got {self.range_R}")


@dataclass(frozen=True)
class ClipBall:
    """An L2 ball (interval when d = 1) used for truncation/clipping."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.center, dtype=np.float64))
        if c.ndim != 1 or not np.isfinite(c).all():
            raise ParameterError("center must be a finite vector")
        if not (self.radius >= 0):
            raise ParameterError(f"radius must be >= 0, got {self.radius}")
        c.setflags(write=False)
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "radius", float(self.radius))

    @property
    def d(self) -> int:
        return self.center.shape[0]


_FAMILIES = ("scaled_gaussian", "point_mass_mixture", "student_t")


@dataclass(frozen=True)
class SyntheticSpec:
    """A synthetic distribution with k-th moment at most 1 in every direction.

    Families:
      * ``scaled_gaussian``: N(mean, I / sigma_k^2) where sigma_k^k = E|N(0,1)|^k,
        so every 1-d projection has k-th central moment exactly 1.
      * ``point_mass_mixture``: the two-point lower-bound construction.  With
        accuracy parameter ``extra["alpha"]`` and unit direction ``extra["v"]``,
        the draw is 0 with probability 1 - lambda and atom * v otherwise, where
        lambda = 25 * alpha^{k/(k-1)} and atom = 1 / (6 * alpha^{1/(k-1)}).
        Construction requires lambda <= 1.
      * ``student_t``: multivariate Student-t (shape I) with ``extra["df"]``
        degrees of freedom, scaled so every projection has k-th moment 1.
        Smoke-test family only; requires df > k.

    ``mean`` is the distribution mean.  ``None`` means the family's natural
    mean: zero, except point_mass_mixture whose natural mean is
    (25/6) * alpha * v.  Any other mean translates the distribution.
    """

    family: str
    mean: tuple | None = None
    k: float = 4.0
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ConfigurationError(f"unknown family {self.family!r}; expected one of {_FAMILIES}")
        # Generators are well-defined down to k = 2 (variance normalization);
        # estimators impose their own k > 2 / k >= 3 preconditions.
        if not (self.k >= 2):
            raise ConfigurationError(f"k must be >= 2, got {self.k}")
        if self.mean is not None:
            mean = tuple(float(x) for x in np.atleast_1d(self.mean))
            if not all(math.isfinite(x) for x in mean):
                raise ConfigurationError("mean must be finite")
            object.__setattr__(self, "mean", mean)
        if self.family == "point_mass_mixture":
            if "alpha" not in self.extra or "v" not in self.extra:
                raise ConfigurationError("point_mass_mixture needs extra={'alpha': ..., 'v': ...}")
            alpha = float(self.extra["alpha"])
            if not (alpha > 0):
                raise ConfigurationError(f"alpha must be > 0, got {alpha}")
            lam = 25.0 * alpha ** (self.k / (self.k - 1))
            if lam > 1:
                raise ConfigurationError(
                    f"atom probability 25 * alpha^(k/(k-1)) = {lam:.4f} > 1; decrease alpha"
                )
            v = np.atleast_1d(np.asarray(self.extra["v"], dtype=np.float64))
            if not math.isclose(float(np.linalg.norm(v)), 1.0, rel_tol=1e-9):
                raise ConfigurationError("direction v must be a unit vector")
            if self.mean is not None and len(self.mean) != v.shape[0]:
                raise ConfigurationError("mean and v dimensions differ")
        elif self.family == "student_t":
            df = float(self.extra.get("df", 0.0))
            if df <= self.k:
                raise ConfigurationError(f"student_t requires df > k = {self.k}, got df = {df}")

    # -- family parameters -------------------------------------------------
    @property
    def dim(self) -> int:
        if self.family == "point_mass_mixture":
            return int(np.atleast_1d(self.extra["v"]).shape[0])
        return 1 if self.mean is None else len(self.mean)

    def _pm_params(self):
        alpha = float(self.extra["alpha"])
        lam = 25.0 * alpha ** (self.k / (self.k - 1))
        atom = 1.0 / (6.0 * alpha ** (1.0 / (self.k - 1)))
        v = np.atleast_1d(np.asarray(self.extra["v"], dtype=np.float64))
        return lam, atom, v

    def mean_vector(self) -> np.ndarray:
        """The true mean of the distribution (shape (d,))."""
        if self.mean is not None:
            return np.asarray(self.mean, dtype=np.float64)
        if self.family == "point_mass_mixture":
            lam, atom, v = self._pm_params()
            return lam * atom * v
        return np.zeros(self.dim)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` i.i.d. samples, shape (size, d)."""
        d = self.dim
        if self.family == "scaled_gaussian":
            sigma_k = gaussian_abs_moment(self.k) ** (1.0 / self.k)
            x = rng.standard_normal((size, d)) / sigma_k
            return x + self.mean_vector()
        if self.family == "point_mass_mixture":
            lam, atom, v = self._pm_params()
            hits = rng.random(size) < lam
            x = np.where(hits[:, None], atom * v, 0.0)
            return x + (self.mean_vector() - lam * atom * v)
        # student_t: Z / sqrt(W/df) is elliptically symmetric, so every
        # projection is a 1-d t_df and one scalar normalizes all directions.
        df = float(self.extra["df"])
        scale = student_t_abs_moment(self.k, df) ** (1.0 / self.k)
        z = rng.standard_normal((size, d))
        w = rng.chisquare(df, size)
        return z / np.sqrt(w / df)[:, None] / scale + self.mean_vector()

    # -- serialization ------------------------------------------------------
    def to_json(self) -> str:
        extra = dict(self.extra)
        if "v" in extra:
            extra["v"] = [float(x) for x in np.atleast_1d(extra["v"])]
        payload = {
            "family": self.family,
            "mean": None if self.mean is None else list(self.mean),
            "k": self.k,
            "extra": extra,
        }
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SyntheticSpec":
        raw = json.loads(text)
        try:
            return cls(
                family=raw["family"],
                mean=None if raw.get("mean") is None else tuple(raw["mean"]),
                k=float(raw.get("k", 4.0)),
                extra=dict(raw.get("extra", {})),
            )
        except KeyError as exc:
            raise ConfigurationError(f"spec JSON missing key {exc}") from exc


@dataclass
class EstimateReport:
    """Output of every estimator in ``harness.ESTIMATORS``: the point estimate,
    the (epsilon, delta) it spent, its seed, and the internals that produced it.

    ``params`` holds estimator-specific scalars/vectors (rho, mu_coarse, rho1,
    rho2, u1, u2, the stage ledger, ...) and is inlined into the JSON
    serialization.  Given the same data, budget, params and seed, every field
    but ``wall_time_ms`` is reproduced bit for bit.
    """

    estimate: np.ndarray
    epsilon: float
    delta: float
    seed: Seed
    wall_time_ms: float = 0.0
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        self.estimate = np.atleast_1d(np.asarray(self.estimate, dtype=np.float64))

    def to_json(self) -> str:
        def _clean(x):
            if isinstance(x, np.ndarray):
                return [float(v) for v in x.ravel()]
            if isinstance(x, (np.floating, np.integer)):
                return x.item()
            return x

        payload = {
            "estimate": [float(v) for v in self.estimate],
            "epsilon": self.epsilon,
            "delta": self.delta,
            "seed": int(self.seed),
            "wall_time_ms": self.wall_time_ms,
        }
        payload.update({k: _clean(v) for k, v in self.params.items()})
        return json.dumps(payload, sort_keys=True)


# ---------------------------------------------------------------------------
# Sampling operations
# ---------------------------------------------------------------------------

def sample_dataset(spec: SyntheticSpec, n: int, m: int, seed: Seed) -> PersonDataset:
    """Draw an n x m x d dataset of i.i.d. samples from ``spec``.

    Deterministic in (spec, n, m, seed); the whole dataset comes from the
    single derived stream ``derive_rng(seed)``, filled person-major.
    """
    if n < 1 or m < 1:
        raise ParameterError(f"need n, m >= 1, got n={n}, m={m}")
    rng = derive_rng(seed)
    draws = spec.sample(rng, n * m)
    return PersonDataset(draws.reshape(n, m, spec.dim))


def sample_batch_means(
    spec: SyntheticSpec, m: int, trials: int, seed: Seed, chunk: int = 1 << 22
) -> np.ndarray:
    """``trials`` independent means of m draws, shape (trials, d).

    Memory-bounded: generates at most ``chunk`` scalar samples at a time,
    one derived stream per chunk.
    """
    if m < 1 or trials < 1:
        raise ParameterError("need m, trials >= 1")
    d = spec.dim
    out = np.empty((trials, d))
    per_chunk = max(1, chunk // (m * d))
    start = 0
    chunk_index = 0
    while start < trials:
        stop = min(trials, start + per_chunk)
        rng = derive_rng(seed, chunk_index)
        draws = spec.sample(rng, (stop - start) * m)
        out[start:stop] = draws.reshape(stop - start, m, d).mean(axis=1)
        start = stop
        chunk_index += 1
    return out


def direction_grid(d: int) -> np.ndarray:
    """Fixed deterministic unit directions used to approximate sup over the sphere.

    d=1: the single direction.  d>1: coordinate axes plus 64 quasi-uniform
    directions (equal angles for d=2, Fibonacci sphere for d=3, seeded
    normalized Gaussians for d >= 4).
    """
    if d < 1:
        raise ParameterError("d must be >= 1")
    if d == 1:
        return np.ones((1, 1))
    axes = np.eye(d)
    if d == 2:
        theta = np.linspace(0.0, np.pi, 64, endpoint=False)
        extra = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    elif d == 3:
        i = np.arange(64, dtype=np.float64)
        golden = (1 + math.sqrt(5)) / 2
        z = 1 - 2 * (i + 0.5) / 64
        r = np.sqrt(np.clip(1 - z * z, 0, None))
        phi = 2 * np.pi * i / golden
        extra = np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)
    else:
        g = derive_rng(0x5D1CE5, d).standard_normal((64, d))
        extra = g / np.linalg.norm(g, axis=1, keepdims=True)
    return np.concatenate([axes, extra], axis=0)


def check_moment(spec: SyntheticSpec, k: float, trials: int, seed: Seed) -> float:
    """Monte Carlo estimate of sup_v E[|<X - mu, v>|^k]^{1/k} over the direction grid.

    Noisy by construction; callers interpret.  Requires trials >= 1e4.
    """
    if trials < 10_000:
        raise ParameterError(f"need trials >= 1e4, got {trials}")
    dirs = direction_grid(spec.dim)
    mu = spec.mean_vector()
    acc = np.zeros(dirs.shape[0])
    per_chunk = max(1, (1 << 22) // spec.dim)
    done = 0
    chunk_index = 0
    while done < trials:
        take = min(per_chunk, trials - done)
        rng = derive_rng(seed, chunk_index)
        x = spec.sample(rng, take) - mu
        acc += np.abs(x @ dirs.T).__pow__(k).sum(axis=0)
        done += take
        chunk_index += 1
    return float(np.max(acc / trials) ** (1.0 / k))
