"""Exact tail probabilities of m-sample means and the tail-bound formulas as
documented in ``dpmean.tailbounds``, written without calling dpmean so that
the tail lab's rows can be checked against an independent computation.

All functions are pure ``math``.  The families are the two that the tail lab
workload uses: the scaled Gaussian and the two-point (point-mass) mixture,
both with k-th moment 1 in every direction.
"""

from __future__ import annotations

import math


def gaussian_sigma_k(k: float) -> float:
    """(E|N(0,1)|^k)^(1/k): the scaled Gaussian draws N(mu, I / sigma_k^2)."""
    moment = 2 ** (k / 2) * math.gamma((k + 1) / 2) / math.sqrt(math.pi)
    return moment ** (1.0 / k)


def normal_upper_tail(z: float) -> float:
    """P[N(0,1) >= z]."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def chi2_4_upper_tail(x: float) -> float:
    """P[chi^2 with 4 degrees of freedom >= x] = e^{-x/2} (1 + x/2)."""
    return math.exp(-x / 2) * (1 + x / 2)


def gaussian_mean_tail(t: float, m: int, d: int, k: float) -> float:
    """Tail of the scaled-Gaussian m-sample mean deviation at t.

    d = 1 is the one-sided tail P[mean - mu >= t]; d = 4 is the norm tail
    P[||mean - mu||_2 >= t].  The deviation is N(0, I / (m sigma_k^2)).
    """
    z = t * gaussian_sigma_k(k) * math.sqrt(m)
    if d == 1:
        return normal_upper_tail(z)
    if d == 4:
        return chi2_4_upper_tail(z * z)
    raise ValueError(f"no closed form wired for d = {d}")


def point_mass_params(alpha: float, k: float) -> tuple:
    """(lambda, atom) of the point-mass mixture with accuracy parameter alpha."""
    lam = 25.0 * alpha ** (k / (k - 1))
    atom = 1.0 / (6.0 * alpha ** (1.0 / (k - 1)))
    return lam, atom


def point_mass_mean_tail(t: float, m: int, d: int, k: float, alpha: float) -> float:
    """Tail of the point-mass m-sample mean deviation at t, as a binomial sum.

    The deviation is atom * v * (B/m - lambda) with B ~ Binomial(m, lambda)
    and v a unit vector.  d = 1 (v = +1) is the one-sided tail; d > 1 is the
    norm tail atom * |B/m - lambda| >= t.
    """
    lam, atom = point_mass_params(alpha, k)
    total = 0.0
    for b in range(m + 1):
        dev = atom * (b / m - lam)
        if (dev if d == 1 else abs(dev)) >= t:
            total += math.comb(m, b) * lam**b * (1 - lam) ** (m - b)
    return total


def score_z(count: int, trials: int, p: float) -> float:
    """Score statistic of an observed count against the exact probability p.

    The Wilson interval is the set of p whose score |count - n p| /
    sqrt(n p (1 - p)) is small; one count is added to the variance so that a
    single hit on a tail far below 1/n reads as about one standard error
    instead of as an infinite score.
    """
    return (count - trials * p) / math.sqrt(trials * p * (1 - p) + 1)


def wilson_halfwidth(count: int, trials: int) -> float:
    """Wilson-interval half-width at z = 1, the tail lab's std error."""
    return math.sqrt(count * (trials - count) / trials + 0.25) / (trials + 1)


def bound_value(name: str, m: int, k: float, t: float, d: int, constant: float) -> float:
    """The documented tail bounds, scaled by the calibration constant.

    heavytail:    C (1 / (m^{k-1} t^k) + exp(-m t^2 / 12))
    berry_esseen: C m^{-k+1} t^{-k}
    highd:        C (d^{k/2} / (m^{k-1} t^k) + exp(-m t^2 / d))
    """
    if name == "heavytail":
        return constant * (1.0 / (m ** (k - 1) * t**k) + math.exp(-m * t * t / 12.0))
    if name == "berry_esseen":
        return constant * m ** (-k + 1) * t ** (-k)
    if name == "highd":
        return constant * (d ** (k / 2) / (m ** (k - 1) * t**k) + math.exp(-m * t * t / d))
    raise ValueError(f"unknown bound {name!r}")
