"""1-D truncation, L2 ball clipping, and the paper's clipping-bias bound
with a Monte Carlo oracle that checks it.

The bias oracle is Monte Carlo rather than quadrature because the synthetic
families are samplers, not density evaluators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ClipBall,
    ParameterError,
    Seed,
    SyntheticSpec,
    sample_batch_means,
)

__all__ = [
    "trunc_1d",
    "clip_ball",
    "truncation_bias_bound",
    "BiasOracleResult",
    "bias_oracle_1d",
]


def trunc_1d(x, lo: float, hi: float):
    """Clamp x (scalar or array) into [lo, hi]."""
    if lo > hi:
        raise ParameterError(f"need lo <= hi, got lo={lo}, hi={hi}")
    return np.minimum(np.maximum(x, lo), hi)


def clip_ball(x: np.ndarray, ball: ClipBall) -> np.ndarray:
    """Project points onto the L2 ball: identity inside, radial rescale outside.

    Accepts one point (shape (d,)) or a batch (shape (n, d)).  Points exactly
    on the surface are returned unchanged, which keeps the 0/0 direction case
    confined to x == center (interior, also unchanged).
    """
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    pts = x[None, :] if single else x
    if pts.shape[1] != ball.d:
        raise ParameterError(f"points have dim {pts.shape[1]}, ball has dim {ball.d}")
    diff = pts - ball.center
    norms = np.linalg.norm(diff, axis=1)
    outside = norms > ball.radius
    out = pts.copy()
    if outside.any():
        scale = ball.radius / norms[outside]
        out[outside] = ball.center + diff[outside] * scale[:, None]
    return out[0] if single else out


def truncation_bias_bound(m: int, k: float, gap: float) -> float | None:
    """Analytic bias bound m^{-k+1} * gap^{-k+1} / (k-1), or None off-domain.

    ``gap`` is rho - u_err, the clip radius minus the coarse-estimate error;
    the bound only applies when gap >= sqrt((k-1) ln m / m).  That threshold is
    the sub-Gaussian term of ``esthd_pure.comparison_rho``'s radius: below it the
    exp(-m gap^2 / 2) part of the tail is not dominated by the polynomial term.
    """
    if gap < math.sqrt((k - 1) * math.log(m) / m):
        return None
    return m ** (-k + 1) * gap ** (-k + 1) / (k - 1)


@dataclass
class BiasOracleResult:
    bias_mc: float
    std_error: float
    analytic_bound: float | None  # None when the gap precondition fails
    gap: float


def bias_oracle_1d(
    spec: SyntheticSpec, m: int, ball: ClipBall, trials: int, seed: Seed
) -> BiasOracleResult:
    """Monte Carlo |E[trunc(S_m)] - mu| for the mean S_m of m draws.

    Truncation interval is [center - radius, center + radius].  Also evaluates
    the analytic upper bound with u_err = |center - mu|; the bound is reported
    as not applicable (None) when rho - u_err is below its validity threshold.
    """
    if trials < 100_000:
        raise ParameterError(f"need trials >= 1e5, got {trials}")
    if spec.dim != 1:
        raise ParameterError("bias_oracle_1d is univariate")
    mu = float(spec.mean_vector()[0])
    center = float(ball.center[0])
    means = sample_batch_means(spec, m, trials, seed)[:, 0]
    z = trunc_1d(means, center - ball.radius, center + ball.radius)
    # fsum is exactly rounded, so a fully clamped batch reports its endpoint exactly
    bias = abs(math.fsum(z) / trials - mu)
    se = float(z.std(ddof=1)) / math.sqrt(trials)
    gap = ball.radius - abs(center - mu)
    return BiasOracleResult(
        bias_mc=bias,
        std_error=se,
        analytic_bound=truncation_bias_bound(m, spec.k, gap),
        gap=gap,
    )
