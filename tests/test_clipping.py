import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dpmean.clipping import (
    bias_oracle_1d,
    clip_ball,
    trunc_1d,
    truncation_bias_bound,
)
from dpmean.core import ClipBall, ParameterError, SyntheticSpec, derive_rng, derive_seed
from dpmean.esthd_pure import comparison_rho


def gaussian(mean=0.0, k=4.0):
    return SyntheticSpec("scaled_gaussian", mean=(mean,), k=k)


finite_floats = st.floats(-1e6, 1e6, allow_nan=False)


class TestTrunc:
    def test_identity_region(self):
        assert trunc_1d(0.5, -1, 1) == 0.5

    def test_clamps(self):
        assert trunc_1d(2, -1, 1) == 1
        assert trunc_1d(-5, 0, 2) == 0

    def test_rejects_inverted_interval(self):
        with pytest.raises(ParameterError):
            trunc_1d(0.0, 1.0, -1.0)

    @given(finite_floats, finite_floats, finite_floats, finite_floats)
    @settings(max_examples=200, deadline=None)
    def test_monotone_nondecreasing(self, x, y, lo, width):
        hi = lo + abs(width)
        if x > y:
            x, y = y, x
        assert trunc_1d(x, lo, hi) <= trunc_1d(y, lo, hi)


vectors = hnp.arrays(np.float64, st.integers(1, 5), elements=st.floats(-100, 100, allow_nan=False))


class TestClipBall:
    def test_projection_example(self):
        out = clip_ball(np.array([3.0, 4.0]), ClipBall(np.zeros(2), 1.0))
        np.testing.assert_allclose(out, [0.6, 0.8], atol=1e-15)

    def test_inside_unchanged(self):
        x = np.array([0.2, -0.1])
        np.testing.assert_array_equal(clip_ball(x, ClipBall(np.zeros(2), 1.0)), x)

    def test_zero_radius(self):
        out = clip_ball(np.array([5.0, -7.0]), ClipBall(np.ones(2), 0.0))
        np.testing.assert_array_equal(out, [1.0, 1.0])

    def test_radius_respected_to_ulp(self):
        rng = derive_rng(3)
        ball = ClipBall(np.array([0.5, -0.25, 1.0]), 0.7)
        pts = rng.normal(scale=10, size=(1000, 3))
        out = clip_ball(pts, ball)
        norms = np.linalg.norm(out - ball.center, axis=1)
        assert np.all(norms <= 0.7 * (1 + 4 * np.finfo(float).eps))

    def test_batch_matches_single(self):
        ball = ClipBall(np.zeros(2), 1.0)
        pts = derive_rng(5).normal(size=(50, 2)) * 3
        batch = clip_ball(pts, ball)
        for row, single in zip(pts, batch):
            np.testing.assert_array_equal(clip_ball(row, ball), single)

    @given(vectors)
    @settings(max_examples=200, deadline=None)
    def test_idempotent(self, x):
        ball = ClipBall(np.zeros(x.shape[0]), 1.5)
        once = clip_ball(x, ball)
        np.testing.assert_allclose(clip_ball(once, ball), once, rtol=0, atol=1e-12)

    def test_lipschitz_random_pairs(self):
        # ||clip(x) - clip(y)|| <= ||x - y|| over 1e4 random pairs
        rng = derive_rng(11)
        ball = ClipBall(np.array([0.3, -0.2]), 0.9)
        xs = rng.normal(scale=4, size=(10**4, 2))
        ys = rng.normal(scale=4, size=(10**4, 2))
        lhs = np.linalg.norm(clip_ball(xs, ball) - clip_ball(ys, ball), axis=1)
        rhs = np.linalg.norm(xs - ys, axis=1)
        assert np.all(lhs <= rhs * (1 + 1e-12) + 1e-12)


class TestBiasBound:
    def test_threshold(self):
        # below sqrt((k-1) ln m / m) the bound is not applicable
        m, k = 100, 4.0
        thresh = math.sqrt(3 * math.log(100) / 100)
        assert truncation_bias_bound(m, k, thresh * 0.99) is None
        assert truncation_bias_bound(m, k, thresh * 1.01) is not None

    def test_value(self):
        # m=100, k=4, gap=0.5: 1e-6 * 8 / 3
        val = truncation_bias_bound(100, 4.0, 0.5)
        assert math.isclose(val, 100**-3 * 0.5**-3 / 3, rel_tol=1e-12)


class TestBiasOracle:
    def test_fully_clamped_bias_exact(self):
        # A7's case 2 at x0 = 1.5 rho and 3 rho: all 10^6 batch means lie below
        # x0 - rho, so every draw is clamped and the bias is exactly x0 - rho
        m, k = 64, 4.0
        rho = comparison_rho(m, k, 0.25)
        for i, frac in ((1, 1.5), (2, 3.0)):
            x0 = frac * rho
            ball = ClipBall(np.array([x0]), rho)
            res = bias_oracle_1d(gaussian(0.0, k), m, ball, 10**6, derive_seed(0xA7, 2, i))
            assert res.bias_mc == x0 - rho, (frac, res.bias_mc, x0 - rho)

    def test_huge_radius_no_bias(self):
        res = bias_oracle_1d(gaussian(0.3), 4, ClipBall(np.array([0.3]), 50.0), 10**5, 3)
        assert res.bias_mc <= 3 * res.std_error

    def test_symmetric_centered_unbiased(self):
        res = bias_oracle_1d(gaussian(0.0), 4, ClipBall(np.array([0.0]), 0.4), 10**5, 5)
        assert res.bias_mc <= 3 * res.std_error

    def test_gaussian_bias_below_bound(self):
        # scaled_gaussian k=4, m=100, rho=0.5 centered at mu
        res = bias_oracle_1d(gaussian(0.3), 100, ClipBall(np.array([0.3]), 0.5), 10**6, 7)
        assert res.analytic_bound is not None
        assert res.bias_mc <= res.analytic_bound + 3 * res.std_error

    def test_bound_not_applicable_flagged(self):
        res = bias_oracle_1d(gaussian(0.0), 100, ClipBall(np.array([0.3]), 0.5), 10**5, 7)
        assert res.analytic_bound is None  # gap 0.2 < 0.372 threshold

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "spec,m,rho",
        [
            (SyntheticSpec("student_t", mean=(0.0,), k=3.0, extra={"df": 6.0}), 4, 1.0),
            (SyntheticSpec("student_t", mean=(0.0,), k=3.0, extra={"df": 6.0}), 16, 0.8),
            (gaussian(0.0, 3.0), 4, 1.0),
            (gaussian(0.0, 4.0), 16, 0.7),
            (
                SyntheticSpec(
                    "point_mass_mixture", mean=(0.0,), k=3.0, extra={"alpha": 0.02, "v": [1.0]}
                ),
                4,
                1.2,
            ),
            (gaussian(0.0, 4.0), 16, 0.8),
        ],
    )
    def test_bias_bound_grid(self, spec, m, rho):
        # empirical bias <= corollary bound whenever the gap precondition holds;
        # outside it the oracle must flag the bound as not applicable
        ball = ClipBall(spec.mean_vector(), rho)
        res = bias_oracle_1d(spec, m, ball, 10**6, 13)
        thresh = math.sqrt((spec.k - 1) * math.log(m) / m)
        if res.gap < thresh:
            assert res.analytic_bound is None, f"gap {res.gap} < threshold {thresh}"
            return
        assert res.analytic_bound is not None, f"gap {res.gap} >= threshold {thresh}"
        assert res.bias_mc <= res.analytic_bound + 3 * res.std_error

    @pytest.mark.parametrize("alpha", [5e-4, 1e-3])
    @pytest.mark.parametrize("rho", [1.0, 1.2])
    def test_point_mass_bias_matches_exact_law(self, alpha, rho):
        # The grid above has zero true bias in every row.  Here one atom hit
        # among m = 4 draws lands past rho, so the bias is 3.6e-4 to 9.9e-4,
        # 5 to 29 se at 10^6 trials; its exact value is a sum over
        # b ~ Binomial(m, lambda) of trunc(mean_b) - mean_b.
        m, k = 4, 3.0
        spec = SyntheticSpec(
            "point_mass_mixture", mean=(0.0,), k=k, extra={"alpha": alpha, "v": [1.0]}
        )
        lam = 25 * alpha ** (k / (k - 1))
        atom = 1 / (6 * alpha ** (1 / (k - 1)))
        exact = abs(
            math.fsum(
                math.comb(m, b) * lam**b * (1 - lam) ** (m - b)
                * (min(max(atom * (b / m - lam), -rho), rho) - atom * (b / m - lam))
                for b in range(m + 1)
            )
        )
        res = bias_oracle_1d(spec, m, ClipBall(spec.mean_vector(), rho), 10**6, 13)
        assert 3.5e-4 < exact < 1e-3
        assert res.analytic_bound is not None
        assert exact <= res.analytic_bound
        assert abs(res.bias_mc - exact) <= 4 * res.std_error, (res.bias_mc, exact, res.std_error)

    def test_trials_floor(self):
        with pytest.raises(ParameterError):
            bias_oracle_1d(gaussian(), 4, ClipBall(np.array([0.0]), 1.0), 10, 3)

