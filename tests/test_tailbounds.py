import importlib.util
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpmean.core import ParameterError, SyntheticSpec
from dpmean.tailbounds import (
    BOUND_NAMES,
    FROZEN_CALIBRATION,
    acceptance_t_grid,
    berry_esseen_threshold,
    heavytail_window,
    lemma_checks,
    mc_tail,
    tail_bound,
)


class TestEvaluators:
    def test_heavytail_frozen_value(self):
        # m=100, k=3, t=0.5, C=1 -> 8e-4 + e^{-25/12} = 0.12531447144412297
        value, _ = tail_bound("heavytail", 100, 3.0, 0.5)
        assert math.isclose(value, 0.12531447144412297, rel_tol=1e-12)

    def test_heavytail_limit_and_m1(self):
        assert tail_bound("heavytail", 100, 3.0, 1e6)[0] < 1e-15
        # m=1: polynomial term reduces to the Markov bound t^{-k}
        value, _ = tail_bound("heavytail", 1, 3.0, 2.0)
        assert math.isclose(value - math.exp(-(2.0**2) / 12), 2.0**-3, rel_tol=1e-12)

    def test_heavytail_needs_k3(self):
        with pytest.raises(ParameterError):
            tail_bound("heavytail", 100, 2.5, 0.5)

    def test_berry_esseen_frozen_values(self):
        value, valid = tail_bound("berry_esseen", 100, 3.0, 0.5)
        assert math.isclose(value, 8e-4, rel_tol=1e-12)
        assert valid
        # threshold at m=100, k=3: sqrt(2 ln 100 / 100) = 0.30348542587702926
        assert math.isclose(
            berry_esseen_threshold(100, 3.0), 0.30348542587702926, rel_tol=1e-12
        )
        assert not tail_bound("berry_esseen", 100, 3.0, 0.3)[1]

    def test_highd_frozen_value(self):
        # d=4, m=256, k=4, t=1 -> 16/256^3 + e^{-64} = 9.5367e-07
        value, _ = tail_bound("highd", 256, 4.0, 1.0, 4)
        assert math.isclose(value, 9.5367431640625e-07 + math.exp(-64), rel_tol=1e-9)

    def test_highd_d1_matches_univariate_polynomial(self):
        poly_hd = tail_bound("highd", 64, 3.0, 0.7, 1)[0] - math.exp(-64 * 0.7**2)
        assert math.isclose(poly_hd, tail_bound("berry_esseen", 64, 3.0, 0.7)[0], rel_tol=1e-9)

    @pytest.mark.parametrize(
        "name, m, t, d",
        [
            ("tail", 100, 0.5, 1),  # unknown bound
            ("berry_esseen", 100, 0.0, 1),
            ("highd", 100, -0.5, 2),
            ("heavytail", 0, 0.5, 1),
            ("highd", 100, 0.5, 0),
        ],
    )
    def test_rejects_arguments_outside_the_contract(self, name, m, t, d):
        with pytest.raises(ParameterError):
            tail_bound(name, m, 3.0, t, d)

    def test_berry_esseen_leq_heavytail_poly(self):
        for m in (16, 64, 256):
            for t in (0.3, 0.5, 1.0):
                be = tail_bound("berry_esseen", m, 3.0, t)[0]
                assert be <= tail_bound("heavytail", m, 3.0, t)[0]

    @given(
        st.sampled_from([4, 16, 64, 256]),
        st.floats(3.0, 6.0),
        st.floats(0.05, 0.95),
        st.integers(1, 8),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_t(self, m, k, t, d):
        for name in BOUND_NAMES:
            assert tail_bound(name, m, k, t * 1.5, d)[0] <= tail_bound(name, m, k, t, d)[0]

    @given(st.floats(3.0, 6.0), st.floats(1.0, 5.0), st.integers(1, 8))
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_m_for_t_above_one(self, k, t, d):
        for name in BOUND_NAMES:
            vals = [tail_bound(name, m, k, t, d)[0] for m in (4, 16, 64, 256)]
            assert all(b <= a * (1 + 1e-12) for a, b in zip(vals, vals[1:]))

    def test_window_shapes(self):
        lo, hi = heavytail_window(10**9, 3.0)
        assert lo < hi  # the explicit window opens at very large m
        lo_small, hi_small = heavytail_window(64, 3.0)
        assert lo_small > hi_small  # and is empty at desk scale


class TestAcceptanceGrids:
    @pytest.mark.parametrize("bound", ["heavytail", "berry_esseen", "highd"])
    def test_grid_shape(self, bound):
        grid = acceptance_t_grid(bound, 64, 4.0, d=2)
        assert grid.shape == (12,)
        assert np.all(np.diff(grid) > 0)

    @pytest.mark.parametrize("k", [3.0, 4.0])
    @pytest.mark.parametrize("m", [16, 64, 256])
    def test_grid_clears_point_mass_lattice(self, k, m):
        # A point-mass mean deviates by atom * (b/m - lambda), or its absolute
        # value as a norm, for an integer b.  A grid point within rounding of
        # such a value would let one ulp of the sampler flip its tail count.
        close = []
        for d in (1, 2, 4):
            v = list(np.ones(d) / math.sqrt(d))
            spec = SyntheticSpec("point_mass_mixture", k=k, extra={"alpha": 0.02, "v": v})
            lam, atom, _ = spec._pm_params()
            dev = atom * (np.arange(m + 1) / m - lam)
            if d > 1:
                dev = np.abs(dev)
            for bound in ("heavytail", "berry_esseen", "highd"):
                grid = acceptance_t_grid(bound, m, k, d)
                gap = float((np.abs(grid[:, None] - dev[None, :]) / grid[:, None]).min())
                if gap <= 1e-9:
                    close.append((d, bound, gap))
        assert not close

    def test_frozen_table_covers_families(self):
        for family in ("scaled_gaussian", "point_mass_mixture"):
            for bound in ("heavytail", "berry_esseen", "highd"):
                assert (family, bound) in FROZEN_CALIBRATION


class TestMcTail:
    def test_symmetric_half_at_zero_plus(self):
        spec = SyntheticSpec("scaled_gaussian", mean=(0.0,), k=4.0)
        [point] = mc_tail(spec, 4, [1e-12], 10**5, 3)
        assert abs(point.empirical - 0.5) < 0.01

    def test_huge_t_zero(self):
        spec = SyntheticSpec("scaled_gaussian", mean=(0.0,), k=4.0)
        [point] = mc_tail(spec, 4, [100.0], 10**5, 3)
        assert point.empirical == 0.0
        assert point.std_error < 1e-4

    def test_gaussian_cdf_oracle(self):
        # m=1, t = 1.6449 / sigma_k: P = 1 - Phi(1.6449) = 0.05 by erf oracle
        spec = SyntheticSpec("scaled_gaussian", mean=(0.0,), k=4.0)
        sigma_k = 3.0**0.25
        t = 1.6449 / sigma_k
        truth = 0.5 * (1 - math.erf(1.6449 / math.sqrt(2)))
        [point] = mc_tail(spec, 1, [t], 4 * 10**5, 3)
        assert abs(point.empirical - truth) < 4 * point.std_error + 1e-4

    def test_norm_mode_matches_d(self):
        spec = SyntheticSpec("scaled_gaussian", mean=(0.0, 0.0), k=4.0)
        [point] = mc_tail(spec, 4, [0.1], 10**5, 3)
        assert 0 < point.empirical < 1


class TestLemmaChecks:
    def test_binomial_example(self):
        assert math.comb(4, 2) == 6 <= (4 * math.e / 2) ** 2

    def test_full_battery_passes(self):
        report = lemma_checks(7)
        assert report.passed, report.summary()
        names = [name for name, _, _ in report.checks]
        assert "binomial_upper_bound" in names
        assert any(name.startswith("truncated_variance") for name in names)
        assert "bernstein_nonpositive_mean" in names

    def test_bernstein_at_t0_trivial(self):
        assert math.exp(-0.0) == 1.0  # bound is 1 at t = 0, trivially holds


class TestCalibrationScript:
    """scripts/calibrate_tail_constants.py stays runnable against the API it calls."""

    @staticmethod
    def load_script():
        path = pathlib.Path(__file__).parents[1] / "scripts" / "calibrate_tail_constants.py"
        spec = importlib.util.spec_from_file_location("calibrate_tail_constants", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    @pytest.mark.parametrize("bound", ["heavytail", "highd"])
    def test_worst_ratio_one_point(self, bound, monkeypatch):
        script = self.load_script()
        monkeypatch.setattr(script, "KS", (4.0,))
        monkeypatch.setattr(script, "MS", (16,))
        monkeypatch.setattr(script, "DS_HIGH", (2,))
        ratio = script.worst_ratio("scaled_gaussian", bound, 10**5, 20250810)
        assert math.isfinite(ratio) and ratio > 0
