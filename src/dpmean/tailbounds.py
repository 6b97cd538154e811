"""Evaluators for the concentration bounds on sums/averages of bounded
k-th-moment variables, a Monte Carlo tail verifier, and the lemma-level
check suite.

Every name here feeds a check that runs: tailbench and the acceptance suite
compare ``mc_tail`` against ``tail_bound``, and ``dpmean lemma-checks`` and
the acceptance suite run ``lemma_checks``.

``tail_bound(name, m, k, t, d)`` evaluates one of ``BOUND_NAMES`` at
constant 1 and returns (value, valid): the bound, and whether t lies in the
theorem's validity window.  All logs are natural.  The hidden constants of
the asymptotic statements are handled by a frozen calibration protocol: a
pre-registered search over {1, 2, 4, 8, 16} picks the smallest dominating
constant per (family, bound) once (scripts/calibrate_tail_constants.py),
callers multiply ``tail_bound``'s value by that ``FROZEN_CALIBRATION``
entry, and the acceptance suite asserts domination with those frozen
constants on fresh seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    ParameterError,
    Seed,
    SyntheticSpec,
    derive_rng,
    sample_batch_means,
)

__all__ = [
    "BOUND_NAMES",
    "tail_bound",
    "berry_esseen_threshold",
    "heavytail_window",
    "highd_threshold",
    "acceptance_t_grid",
    "TailPoint",
    "mc_tail",
    "LemmaCheckReport",
    "lemma_checks",
    "FROZEN_CALIBRATION",
]

# Frozen calibration constants per (family, bound), produced once by the
# pre-registered search in scripts/calibrate_tail_constants.py (1e6 trials,
# seed 20250810) and never retuned by tests.  The berry_esseen constant is
# driven by grid points whose true tail sits below the Monte Carlo
# resolution floor (empirical count 0, 3x Wilson stderr ~ 1.5e-6 against a
# bound ~ 1.7e-7), not by an observed violation.
FROZEN_CALIBRATION = {
    ("scaled_gaussian", "heavytail"): 1.0,
    ("scaled_gaussian", "berry_esseen"): 16.0,
    ("scaled_gaussian", "highd"): 1.0,
    ("point_mass_mixture", "heavytail"): 1.0,
    ("point_mass_mixture", "berry_esseen"): 16.0,
    ("point_mass_mixture", "highd"): 1.0,
}


def berry_esseen_threshold(m: int, k: float) -> float:
    """Validity threshold sqrt((k-1) ln m / m) for the average-form tail bound."""
    return math.sqrt((k - 1) * math.log(m) / m)


def heavytail_window(m: int, k: float) -> tuple:
    """(lower, upper) validity window recorded for the heavy-tail sum theorem.

    Lower is sqrt(ln m / m) (the Theta(sqrt(log m / m)) shape with c1 = 1);
    upper is the explicit form (1/(3 e ln m 4^{k-1}))^{1/(k-2)} that the
    first-term-domination argument yields.  At desk-scale m the window can be
    empty; evaluators still compute, they only flag.
    """
    if m < 2:
        return math.inf, 0.0  # degenerate: no valid window at m = 1
    lower = math.sqrt(math.log(m) / m)
    upper = (1.0 / (3 * math.e * math.log(m) * 4 ** (k - 1))) ** (1.0 / (k - 2))
    return lower, upper


def highd_threshold(m: int, k: float, d: int) -> float:
    """High-dimensional validity threshold t1 = sqrt(d ln m / m) (the theorem's
    constant pinned to 1)."""
    return math.sqrt(d * math.log(m) / m)


BOUND_NAMES = ("heavytail", "berry_esseen", "highd")


def tail_bound(name: str, m: int, k: float, t: float, d: int = 1) -> tuple:
    """(value, valid): bound ``name`` at constant 1 on the tail at t of the
    average of m samples, and whether t lies in its validity window.

    * heavytail: 1/(m^{k-1} t^k) + exp(-m t^2 / 12) for the one-sided tail;
      needs k >= 3, and valid inside ``heavytail_window``.
    * berry_esseen: m^{-k+1} t^{-k}, valid for t >= sqrt((k-1) ln m / m).
    * highd: d^{k/2}/(m^{k-1} t^k) + exp(-m t^2 / d) for the L2-norm tail,
      valid for t >= ``highd_threshold``.

    An out-of-window t is flagged, still evaluated.  Needs m >= 1, d >= 1
    and t > 0.
    """
    if name not in BOUND_NAMES:
        raise ParameterError(f"unknown bound {name!r}; expected one of {BOUND_NAMES}")
    if m < 1 or d < 1:
        raise ParameterError("need m >= 1 and d >= 1")
    if not (t > 0):
        raise ParameterError(f"t must be > 0, got {t}")
    if name == "heavytail":
        if k < 3:
            raise ParameterError(f"heavy-tail sum bound needs k >= 3, got {k}")
        lo, hi = heavytail_window(m, k)
        return 1.0 / (m ** (k - 1) * t**k) + math.exp(-m * t**2 / 12.0), lo < t < hi
    if name == "berry_esseen":
        return m ** (-k + 1) * t ** (-k), t >= berry_esseen_threshold(m, k)
    poly = d ** (k / 2) / (m ** (k - 1) * t**k)
    return poly + math.exp(-m * t**2 / d), t >= highd_threshold(m, k, d)


def acceptance_t_grid(bound: str, m: int, k: float, d: int = 1, points: int = 12) -> np.ndarray:
    """Pre-registered 12-point geometric t-grid for the domination tests.

    berry_esseen: [thresh, 3 thresh].  heavytail: [thresh_BE, max(1/ln m,
    2 thresh_BE)] (the explicit-constant window is empty at desk-scale m, so
    the grid starts at the average-form threshold, where the polynomial term
    is provably a valid bound, and spans up to the Theta(1/log m) shape).
    highd: [t1, 3 t1].
    """
    if bound == "berry_esseen":
        lo = berry_esseen_threshold(m, k)
        hi = 3 * lo
    elif bound == "heavytail":
        lo = berry_esseen_threshold(m, k)
        hi = max(1 / math.log(m), 2 * lo)
    elif bound == "highd":
        lo = highd_threshold(m, k, d)
        hi = 3 * lo
    else:
        raise ParameterError(f"unknown bound {bound!r}")
    return np.geomspace(lo, hi, points)


@dataclass(frozen=True)
class TailPoint:
    t: float
    empirical: float
    std_error: float


def _wilson_halfwidth(count: int, n: int, z: float = 1.0) -> float:
    return z / (n + z * z) * math.sqrt(count * (n - count) / n + z * z / 4)


def mc_tail(
    spec: SyntheticSpec, m: int, t_grid, trials: int, seed: Seed, threads: int = 1
) -> list:
    """Empirical tail probabilities of the m-sample average at each t.

    A univariate spec measures the one-sided P[mean - mu >= t] (the
    univariate theorems' form), a multivariate one P[||mean - mu||_2 >= t]
    (the high-dimensional theorem's).  Std errors are Wilson-interval
    (z = 1) half-widths.  ``sample_batch_means`` draws the batch with
    ``threads`` workers; the counts do not depend on it.
    """
    if trials < 100_000:
        raise ParameterError(f"need trials >= 1e5, got {trials}")
    dev = sample_batch_means(spec, m, trials, seed, threads) - spec.mean_vector()
    stat = dev[:, 0] if spec.dim == 1 else np.linalg.norm(dev, axis=1)
    out = []
    for t in np.atleast_1d(t_grid):
        count = int((stat >= t).sum())
        out.append(
            TailPoint(
                t=float(t),
                empirical=count / trials,
                std_error=_wilson_halfwidth(count, trials),
            )
        )
    return out


@dataclass
class LemmaCheckReport:
    checks: list = field(default_factory=list)  # (name, passed, detail)

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def add(self, name: str, ok: bool, detail: str) -> None:
        self.checks.append((name, bool(ok), detail))

    def summary(self) -> str:
        lines = [f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}" for name, ok, detail in self.checks]
        lines.append(f"lemma checks: {'all passed' if self.passed else 'FAILURES PRESENT'}")
        return "\n".join(lines)


def _lemma_families(k: float) -> list:
    return [
        SyntheticSpec("scaled_gaussian", mean=(0.0,), k=k),
        SyntheticSpec("point_mass_mixture", mean=(0.0,), k=k, extra={"alpha": 0.02, "v": [1.0]}),
        SyntheticSpec("student_t", mean=(0.0,), k=k, extra={"df": 2 * k}),
    ]


def lemma_checks(seed: Seed) -> LemmaCheckReport:
    """Run the lemma-level verification battery, at 2e5 draws per Monte
    Carlo check (the truncated-variance slack is sized for that count).

    (a) exact binomials C(m, j) <= (e m / j)^j for all m <= 64;
    (b) Monte Carlo Var(X 1{X < r}) <= 1 for mean-zero unit-k-th-moment
        generators over an r grid;
    (c) empirical Bernstein tails P[sum X_i >= m t] <= 1.1 exp(-m t^2/(1+rt))
        for truncated-Gaussian variables (non-positive mean, variance <= 1,
        X <= r) over an (m, t, r) grid.
    """
    report = LemmaCheckReport()
    trials = 200_000

    worst = None
    ok = True
    for m in range(1, 65):
        for j in range(1, m + 1):
            lhs = math.comb(m, j)
            rhs = (math.e * m / j) ** j
            if lhs > rhs:
                ok = False
                worst = (m, j)
    report.add(
        "binomial_upper_bound",
        ok,
        "C(m, j) <= (em/j)^j for all m <= 64" if ok else f"violated at {worst}",
    )

    for spec in _lemma_families(3.5):
        draws = sample_batch_means(spec, 1, trials, seed)[:, 0]
        worst_var, worst_r = 0.0, None
        for r in (0.5, 1.0, 2.0, math.inf):
            y = np.where(draws < r, draws, 0.0)
            var = float(y.var(ddof=1))
            if var > worst_var:
                worst_var, worst_r = var, r
        slack = 1.0 + 0.03  # MC slack at 2e5 draws
        report.add(
            f"truncated_variance[{spec.family}]",
            worst_var <= slack,
            f"max Var(X 1(X<r)) = {worst_var:.4f} at r={worst_r} (limit 1 + slack)",
        )

    rng = derive_rng(seed, 99)
    ok = True
    detail = []
    for m in (16, 64):
        draws = rng.standard_normal((trials, m))
        for r in (0.5, 1.0, 2.0):
            x = np.minimum(draws, r)
            sums = x.sum(axis=1)
            for t in (0.25, 0.5, 1.0):
                bound = math.exp(-m * t * t / (1 + r * t))
                emp = float((sums >= m * t).mean())
                if emp > 1.1 * bound:
                    ok = False
                    detail.append(f"(m={m}, r={r}, t={t}): {emp:.2e} > 1.1 * {bound:.2e}")
    report.add(
        "bernstein_nonpositive_mean",
        ok,
        "empirical <= 1.1 * bound on the whole grid" if ok else "; ".join(detail),
    )
    return report
