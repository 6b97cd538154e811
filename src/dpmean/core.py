"""Domain types, deterministic randomness, and synthetic heavy-tailed generators.

Estimators read a person only through their average: their one input is a
``PersonMeans``, the (n, d) per-person means of m samples each, whose row
slices and column views each entry point hands to its stages.
``PersonDataset`` (n x m x d raw samples) is for ingest only, and
``sample_batch_means`` is the one sampler.  It draws in chunks, each on its
own stream, on ``_run_on_workers``, the package's one worker pool, which
runs the sweep's trials too.  Point-mass and Student-t means are drawn from
their exact laws: one binomial per point-mass mean, and m chi-squares and d
normals per Student-t mean, in cache-sized blocks of chi-squares.  Gaussian
chunks draw m samples per mean in cache-sized blocks into two buffers that
every block of the chunk reuses: one holds the block's samples, and half a
block of scratch holds them in (sample, person) order, so that averaging
adds m contiguous slabs in the order numpy's ``mean`` adds them, bit for
bit.  Budgets are ``PrivacyBudget``s and synthetic distributions
``SyntheticSpec``s.  All randomness flows through ``derive_rng`` so that any
operation is bit-reproducible given (inputs, seed).  A JSON config that does
not parse, or holds a field of the wrong type, is a ``ConfigurationError``
(see ``config_errors``).  That the generators are normalised (k-th moment 1
in every direction) is checked in the tests, not here.
"""

from __future__ import annotations

import hashlib
import json
import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ConfigurationError",
    "ParameterError",
    "EstimationFailedError",
    "config_errors",
    "strict_int",
    "strict_float",
    "Seed",
    "derive_rng",
    "derive_seed",
    "stable_hash",
    "PersonDataset",
    "PersonMeans",
    "PrivacyBudget",
    "ProblemParams",
    "ClipBall",
    "SyntheticSpec",
    "EstimateReport",
    "sample_batch_means",
    "gaussian_abs_moment",
    "student_t_abs_moment",
]


class ConfigurationError(ValueError):
    """A spec/config describes an invalid or unsupported setup."""


class ParameterError(ValueError):
    """An operation was called with arguments outside its contract."""


class EstimationFailedError(RuntimeError):
    """An estimator could not produce an output (e.g. all buckets suppressed)."""


@contextmanager
def config_errors(what: str):
    """Re-raise a JSON parse error, a missing key or a field of the wrong
    type inside the block as a ConfigurationError naming ``what``.  The
    errors the config's own validation raises pass through unchanged."""
    try:
        yield
    except (ConfigurationError, ParameterError):
        raise
    except KeyError as exc:
        raise ConfigurationError(f"{what} missing key {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigurationError(f"malformed {what}: {exc}") from exc


def strict_int(value) -> int:
    """An integer config field: an int, or a float with an integral value
    such as 256.0.  Anything else (256.9, true, "256") is a ValueError, which
    ``config_errors`` reports, instead of being truncated by ``int()``."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"expected an integer, got {value!r}")


def strict_float(value) -> float:
    """A real config field: an int or a float.  A bool or a string (true,
    "0.15") is a ValueError, which ``config_errors`` reports, instead of
    being converted by ``float()``."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    raise ValueError(f"expected a number, got {value!r}")


# A seed is a plain unsigned 64-bit integer.  Sub-streams are derived with
# ``derive_rng(seed, *path)``; the path convention is documented there.
Seed = int


def _seed_sequence(seed: Seed, path: tuple) -> np.random.SeedSequence:
    if seed < 0 or seed >= 2**64:
        raise ParameterError(f"seed must fit in uint64, got {seed}")
    return np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path))


def derive_rng(seed: Seed, *path: int) -> np.random.Generator:
    """Derive an independent generator from ``seed`` and an integer path.

    The derivation is ``SeedSequence(seed, spawn_key=path)``, so distinct
    paths give statistically independent, parallel-safe streams and the
    mapping is stable across processes.  Conventions used in this package:
    estimators pass one path element per pipeline stage, the experiment
    harness uses ``(grid_point_hash, trial_index)``, and Monte Carlo loops
    use ``(chunk_index,)``.
    """
    return np.random.default_rng(_seed_sequence(seed, path))


def derive_seed(seed: Seed, *path: int) -> Seed:
    """Derive a child seed (uint64) from ``seed`` and an integer path.

    Used when handing seeds to sub-operations so that pipeline stages draw
    from independent streams.  Same derivation tree as ``derive_rng``.
    """
    return int(_seed_sequence(seed, path).generate_state(1, dtype=np.uint64)[0])


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
class PersonMeans:
    """The estimators' input: a read-only float64 (n, d) array of per-person
    averages of m samples each.  Validated once: 2-D, n, d, m >= 1, finite."""

    means: np.ndarray
    m: int

    def __post_init__(self):
        v = np.array(self.means, dtype=np.float64)  # owned, so freezing it is safe
        if v.ndim != 2 or min(v.shape) < 1 or self.m < 1:
            raise ParameterError(f"need (n, d) means, n, d, m >= 1; got {v.shape}, m={self.m}")
        bad = np.flatnonzero(~np.isfinite(v).all(axis=1))
        if bad.size:
            raise ParameterError(
                f"person {bad[0]} has a non-finite mean (finite samples can overflow when averaged)"
            )
        v.setflags(write=False)
        object.__setattr__(self, "means", v)


@dataclass(frozen=True)
class PersonDataset:
    """An ingested file's raw samples: n people x m samples in R^d, one (n, m, d) tensor."""

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

    def person_means(self) -> PersonMeans:
        """Per-person averages S_i = (1/m) sum_j X^{(i)}_j, shape (n, d)."""
        with np.errstate(over="ignore"):  # PersonMeans names an overflowed mean
            means = _mean_over_samples(self.values)
        return PersonMeans(means, self.values.shape[1])


@dataclass(frozen=True)
class PrivacyBudget:
    """(epsilon, delta) privacy budget; pure DP iff delta == 0."""

    epsilon: float
    delta: float = 0.0

    def __post_init__(self):
        if not (self.epsilon > 0):
            raise ParameterError(f"epsilon must be > 0, got {self.epsilon}")
        if not math.isfinite(self.epsilon):
            raise ParameterError(f"epsilon must be finite, got {self.epsilon}")
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
        for name in ("k", "alpha", "range_R"):
            if not math.isfinite(getattr(self, name)):
                raise ParameterError(f"{name} must be finite, got {getattr(self, name)}")


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

# Scalars per block of ``sample_means`` (512 KiB), so a block stays in cache:
# scaled_gaussian samples, or student_t chi-squares.
SAMPLE_BLOCK = 1 << 16


def _mean_over_samples(
    x: np.ndarray, out: np.ndarray | None = None, scratch: np.ndarray | None = None
) -> np.ndarray:
    """``x.mean(axis=1)`` of a C-contiguous (n, m, d) array, bit for bit,
    written into ``out`` ((n, d); allocated when None).

    At d > 1 numpy adds the m samples in order, j = 0, ..., m - 1, starting
    from 0, but its inner loop is only d long.  Here each pass copies as
    many people as ``scratch`` holds into (m, people, d) order, each
    sample's d values moved as one opaque item, sums the m contiguous
    (people * d) slabs in that same order, and divides by m.  ``scratch``
    defaults to ``_slab_buffer(n, m, d)``.  At d = 1 the m axis is
    contiguous, numpy sums it pairwise and fast, and the mean is numpy's.
    """
    n, m, d = x.shape
    if out is None:
        out = np.empty((n, d))
    if d == 1:
        return np.mean(x, axis=1, out=out)
    if scratch is None:
        scratch = _slab_buffer(n, m, d)
    rows = scratch.size // (m * d)
    item = np.dtype((np.void, x.itemsize * d))
    for start in range(0, n, rows):
        people = x[start : start + rows]
        slabs = scratch[: people.size].reshape(m, len(people), d)
        slabs.view(item)[...] = people.view(item).transpose(1, 0, 2)
        total = out[start : start + rows]
        np.add.reduce(slabs, axis=0, out=total)
        total /= m
    return out


def _slab_buffer(n: int, m: int, d: int) -> np.ndarray:
    """Scratch for ``_mean_over_samples``: half a ``SAMPLE_BLOCK`` of people,
    at least one and at most n.  Beside a sampler's block of samples and the
    64 KiB buffer that numpy takes for each broadcast add, a whole block of
    scratch would hold more than two blocks."""
    return np.empty(min(n, max(1, SAMPLE_BLOCK // 2 // (m * d))) * m * d)


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
        Smoke-test family only; requires a finite df > k.

    ``mean`` is the distribution mean.  ``None`` means the family's natural
    mean: zero, except point_mass_mixture whose natural mean is
    (25/6) * alpha * v.  Any other mean translates the distribution.

    ``sample_means`` draws the mean of m samples.  For point_mass_mixture it
    is exact: the mean is shift + atom * v * Binomial(m, lambda) / m, one
    binomial variate per mean.  For student_t it is exact too: a sample is
    c * Z_j / sqrt(W_j / df), with Z_j ~ N(0, I_d), W_j ~ chi^2_df and c the
    scale that makes the k-th moment 1.  Given the W_j the sum of m samples
    is Gaussian, so the mean is mean + (c / m) * sqrt(sum_j df / W_j) * Z
    with one Z ~ N(0, I_d): m chi-squares and d normals per mean, drawn in
    row blocks of about ``SAMPLE_BLOCK`` chi-squares, each block's
    chi-squares before its normals.  scaled_gaussian draws m samples and
    averages them, in row blocks of about ``SAMPLE_BLOCK`` samples, one
    block after another from the same generator.  Consecutive
    ``standard_normal`` calls continue one stream, so its bits are those of
    a single draw.  Each block is drawn, scaled and shifted in one reused
    buffer by ``_draw_into`` (which ``sample`` calls for both families), and
    ``_mean_over_samples`` averages it through a reused half-block scratch,
    bit for bit as ``mean(axis=1)`` would.
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
            try:
                df = strict_float(self.extra.get("df", 0.0))
            except ValueError as exc:
                raise ConfigurationError(f"student_t df: {exc}") from None
            if not math.isfinite(df):  # NaN would pass the check below
                raise ConfigurationError(f"student_t df must be finite, got {df}")
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
        if self.family == "point_mass_mixture":
            lam, atom, v = self._pm_params()
            hits = rng.random(size) < lam
            x = np.where(hits[:, None], atom * v, 0.0)
            return x + (self.mean_vector() - lam * atom * v)
        x = np.empty((size, self.dim))
        self._draw_into(rng, x)
        return x

    def _draw_into(self, rng: np.random.Generator, x: np.ndarray) -> None:
        """Fill ``x``, a C-contiguous float64 (rows, j * d) array, with
        rows * j scaled_gaussian or student_t samples of d values each, in
        draw order: the bits of ``sample(rng, rows * j)``."""
        d = self.dim
        rng.standard_normal(out=x)
        if self.family == "scaled_gaussian":
            x /= gaussian_abs_moment(self.k) ** (1.0 / self.k)
        else:
            # student_t: Z / sqrt(W/df) is elliptically symmetric, so every
            # projection is a 1-d t_df and one scalar normalizes all directions.
            df = float(self.extra["df"])
            w = rng.chisquare(df, x.size // d)
            w /= df
            np.sqrt(w, out=w)
            z = x.reshape(-1, d)
            z /= w[:, None]
            x /= student_t_abs_moment(self.k, df) ** (1.0 / self.k)
        # A scalar at d = 1, else the mean tiled to a row's j * d values:
        # numpy's inner loop then runs over the whole row, where a broadcast
        # (d,) mean would make it d long.
        mean = self.mean_vector()
        x += mean[0] if d == 1 else np.tile(mean, x.shape[1] // d)

    def sample_means(self, rng: np.random.Generator, n: int, m: int) -> np.ndarray:
        """Draw ``n`` i.i.d. means of ``m`` samples each, shape (n, d)."""
        if self.family == "point_mass_mixture":
            lam, atom, v = self._pm_params()
            b = rng.binomial(m, lam, n)
            return (b / m)[:, None] * (atom * v) + (self.mean_vector() - lam * atom * v)
        d = self.dim
        out = np.empty((n, d))
        if self.family == "student_t":
            df = float(self.extra["df"])
            scale = 1.0 / (m * student_t_abs_moment(self.k, df) ** (1.0 / self.k))
            rows = min(n, max(1, SAMPLE_BLOCK // m))
            gammas = np.empty(rows * m)
            for start in range(0, n, rows):
                x = out[start : start + rows]
                # numpy's chi-square is twice a Gamma(df/2) variate, so this
                # is the stream and the bits of chisquare(df) and df / W_j,
                # drawn into one reused buffer.
                w = gammas[: len(x) * m].reshape(len(x), m)
                rng.standard_gamma(df / 2, out=w)
                np.divide(df / 2, w, out=w)
                rng.standard_normal(out=x)
                x *= (np.sqrt(w.sum(axis=1)) * scale)[:, None]
            out += self.mean_vector()
            return out
        rows = min(n, max(1, SAMPLE_BLOCK // (m * d)))
        block = np.empty((rows, m * d))
        scratch = _slab_buffer(rows, m, d) if d > 1 else None
        for start in range(0, n, rows):
            x = block[: min(n - start, rows)]
            self._draw_into(rng, x)
            _mean_over_samples(x.reshape(-1, m, d), out[start : start + len(x)], scratch)
        return out

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
        with config_errors("spec JSON"):
            raw = json.loads(text)
            return cls(
                family=raw["family"],
                mean=None if raw.get("mean") is None else tuple(raw["mean"]),
                k=strict_float(raw.get("k", 4.0)),
                extra=dict(raw.get("extra", {})),
            )


@dataclass
class EstimateReport:
    """Output of every estimator in ``harness.ESTIMATORS``: the point estimate,
    the (epsilon, delta) it spent, its seed, and the internals that produced it.

    ``params`` holds estimator-specific scalars/vectors (rho, mu_coarse, rho1,
    rho2, u1, u2, the stage ledger, ...) and is inlined into the JSON
    serialization.  Stages run on budgets that ``BudgetLedger.add`` charged,
    and ``BudgetLedger.report`` builds every report, so epsilon and delta are
    the ledger's grouped total: what was spent.  Given the same data, budget,
    params and seed, every field but ``wall_time_ms`` is reproduced bit for
    bit.
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

# Scalar samples per chunk of ``sample_batch_means``.  The chunks fix the
# streams, so a change to it changes every batch.
BATCH_CHUNK = 1 << 22


def _run_on_workers(tasks: int, threads: int, task) -> None:
    """Call ``task(i)`` for i = 0, ..., tasks - 1 on ``threads`` workers, the
    package's one pool: the calling thread and ``min(threads, tasks) - 1``
    helper threads, each taking the next index in order, so one worker runs
    every task in the caller, in order.  The first exception stops every
    worker from starting another task, and the caller re-raises it.  Whatever
    ends the caller's share (an interrupt, a helper that fails to start), the
    helpers start nothing more and are joined before this returns.  Each
    helper keeps its own malloc arena, which holds the memory of the largest
    draw it made; a caller that only waited would cost one arena more.
    """
    if threads < 1:
        raise ParameterError(f"threads must be >= 1, got {threads}")
    pending = list(range(tasks - 1, -1, -1))  # pop() takes indices in order
    failures = []
    lock = threading.Lock()

    def work() -> None:
        try:
            while True:
                with lock:
                    if not pending:
                        return
                    i = pending.pop()
                task(i)
        except BaseException as exc:  # re-raised by the caller below
            with lock:
                pending.clear()
                failures.append(exc)

    helpers = []
    try:
        for _ in range(min(threads, tasks) - 1):
            helper = threading.Thread(target=work)
            helper.start()
            helpers.append(helper)
        work()
    finally:
        with lock:
            pending.clear()
        for helper in helpers:
            helper.join()
    if failures:
        raise failures[0]


def sample_batch_means(
    spec: SyntheticSpec, m: int, trials: int, seed: Seed, threads: int = 1
) -> np.ndarray:
    """``trials`` independent means of m draws, shape (trials, d).

    Chunked: each chunk of ``BATCH_CHUNK // (m * d)`` means comes from
    ``spec.sample_means`` on its own ``derive_rng(seed, chunk_index)`` stream
    and fills only its own rows, so the chunks run on ``_run_on_workers``
    with ``threads`` workers and the thread count never changes a bit of the
    result.  A scaled_gaussian chunk holds one buffer of about
    ``SAMPLE_BLOCK`` samples and a half-block scratch, and a student_t chunk
    one buffer of about ``SAMPLE_BLOCK`` chi-squares, each reused by every
    block of the chunk; a point_mass_mixture chunk holds one binomial per
    mean.
    """
    if m < 1 or trials < 1:
        raise ParameterError("need m, trials >= 1")
    d = spec.dim
    out = np.empty((trials, d))
    per_chunk = max(1, BATCH_CHUNK // (m * d))

    def draw(chunk_index: int) -> None:
        start = chunk_index * per_chunk
        stop = min(trials, start + per_chunk)
        out[start:stop] = spec.sample_means(derive_rng(seed, chunk_index), stop - start, m)

    _run_on_workers(-(-trials // per_chunk), threads, draw)
    return out
