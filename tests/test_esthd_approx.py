import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpmean.core import (
    ClipBall,
    EstimationFailedError,
    ParameterError,
    PersonDataset,
    PrivacyBudget,
    ProblemParams,
    SyntheticSpec,
    derive_seed,
    sample_dataset,
)
from dpmean.clipping import clip_ball
from dpmean.est1d import range_estimator
from dpmean.esthd_approx import (
    clip_and_noise,
    coarse_estimate_hd,
    estimate_single_round,
    estimate_two_round,
    single_round_rho,
    two_round_radii,
)

SPEC4 = SyntheticSpec("scaled_gaussian", mean=(0.3, -0.2, 0.1, 0.0), k=4.0)
PARAMS4 = ProblemParams(k=4.0, alpha=0.4, beta=0.1, range_R=2.0)
BUDGET = PrivacyBudget(1.0, 1e-6)


def constant_dataset(mu, n, m):
    mu = np.asarray(mu, dtype=float)
    return PersonDataset(np.broadcast_to(mu, (n, m, mu.size)).copy())


class TestRadii:
    def test_frozen_values(self):
        rho1, rho2 = two_round_radii(1024, 100, 4, 4.0, 1.0, 1e-6)
        assert math.isclose(rho1, 0.21667141448764565, rel_tol=1e-12)
        assert math.isclose(rho2, 0.2, rel_tol=1e-12)

    def test_single_round_frozen(self):
        # independent arithmetic: 4.44127161936601
        val = single_round_rho(10**5, 100, 4, 4.0, 1.0, 1e-6)
        assert math.isclose(val, 4.44127161936601, rel_tol=1e-10)

    @given(
        st.integers(3, 10**6),
        st.sampled_from([4, 16, 100, 1024]),
        st.integers(1, 32),
        st.floats(2.1, 8.0),
        st.floats(0.01, 4.0),
        st.floats(1e-9, 0.1),
    )
    @settings(max_examples=200, deadline=None)
    def test_rho1_dominates_rho2(self, n, m, d, k, eps, delta):
        rho1, rho2 = two_round_radii(n, m, d, k, eps, delta)
        assert rho1 >= rho2 > 0


class TestCoarseHd:
    def test_d1_reduces_to_range_estimator(self):
        spec1 = SyntheticSpec("scaled_gaussian", mean=(0.3,), k=4.0)
        data = sample_dataset(spec1, 512, 100, 3)
        out = coarse_estimate_hd(data.person_means(), data.m, BUDGET, r=1.6, seed=17, range_R=2.0)
        direct = range_estimator(
            data.person_means()[:, 0], data.m, BUDGET, r=0.8, R=2.0, seed=derive_seed(17, 0)
        )
        assert out.shape == (1,)
        assert out[0] == direct.mu_coarse

    def test_noiseless_midpoints(self):
        data = constant_dataset([0.4, -0.4], 4096, 100)
        out = coarse_estimate_hd(
            data.person_means(), data.m, PrivacyBudget(1e9, 1e-6), r=16 * math.sqrt(2 / 100),
            seed=3, range_R=2.0,
        )
        width = 16 * math.sqrt(2 / 100) / math.sqrt(2) / 2
        np.testing.assert_allclose(out, [0.4 // width * width + width / 2,
                                         -0.4 // width * width + width / 2], atol=1e-12)
        assert np.all(np.abs(out - np.array([0.4, -0.4])) <= 16 * math.sqrt(2 / 100) / math.sqrt(2))

    def test_requires_delta(self):
        data = constant_dataset([0.0], 64, 16)
        with pytest.raises(ParameterError):
            coarse_estimate_hd(
                data.person_means(), data.m, PrivacyBudget(1.0, 0.0), r=1.6, seed=3, range_R=2.0
            )

    def test_d3_accuracy_monte_carlo(self):
        spec3 = SyntheticSpec("scaled_gaussian", mean=(0.3, -0.2, 0.1), k=4.0)
        r = 16 * math.sqrt(3 / 100)
        hits = 0
        for trial in range(100):
            data = sample_dataset(spec3, 3000, 100, derive_seed(7, trial))
            out = coarse_estimate_hd(
                data.person_means(), data.m, BUDGET, r=r, seed=derive_seed(8, trial), range_R=2.0
            )
            hits += np.linalg.norm(out - spec3.mean_vector()) < r
        assert hits >= 90

    def test_failure_names_coordinate(self):
        # coordinate 0 lies inside the histogram range and succeeds at this
        # epsilon; coordinate 1 lies outside it, so no bucket is released
        data = constant_dataset([0.4, 100.0], 4096, 100)
        with pytest.raises(EstimationFailedError) as info:
            coarse_estimate_hd(
                data.person_means(), data.m, PrivacyBudget(1e9, 1e-6), r=1.6, seed=3, range_R=2.0
            )
        assert str(info.value) == (
            "coarse stage, coordinate 1: all histogram buckets were suppressed"
        )
        assert isinstance(info.value.__cause__, EstimationFailedError)


class TestClipAndNoise:
    def test_zero_radius_returns_center(self):
        data = sample_dataset(SPEC4, 32, 8, 3)
        ball = ClipBall(np.array([1.0, 2.0, 3.0, 4.0]), 0.0)
        out = clip_and_noise(data.person_means(), BUDGET, ball, seed=5)
        np.testing.assert_array_equal(out, ball.center)

    def test_huge_budget_recovers_grand_mean(self):
        data = sample_dataset(SPEC4, 64, 8, 3)
        ball = ClipBall(np.zeros(4), 10.0)  # contains every person mean
        out = clip_and_noise(data.person_means(), PrivacyBudget(1e12, 1e-6), ball, seed=5)
        np.testing.assert_allclose(out, data.person_means().mean(axis=0), atol=1e-9)

    def test_noise_scale_matches_printed_calibration(self):
        # stddev = 2 sqrt(d) rho sqrt(2 ln(4/delta)) / (n eps) per coordinate
        n, d, rho = 100, 4, 0.5
        data = constant_dataset(np.zeros(d), n, 4)
        ball = ClipBall(np.zeros(d), rho)
        means = data.person_means()
        draws = np.array(
            [clip_and_noise(means, BUDGET, ball, seed=derive_seed(3, r)) for r in range(4000)]
        )
        expected = 2 * math.sqrt(d) * rho * math.sqrt(2 * math.log(4 / 1e-6)) / (n * 1.0)
        assert math.isclose(draws.std(ddof=1), expected, rel_tol=0.05)

    def test_sensitivity_witness_exact(self):
        # antipodal clipped points: pre-noise shift exactly 2 rho / n in L2
        n, m, d, rho = 64, 4, 3, 0.8
        ball = ClipBall(np.zeros(d), rho)
        base = sample_dataset(
            SyntheticSpec("scaled_gaussian", mean=(0.0, 0.0, 0.0), k=4.0), n, m, 3
        ).values.copy()
        direction = np.array([1.0, 0.0, 0.0])
        lo, hi = base.copy(), base.copy()
        lo[0] = -10 * rho * direction
        hi[0] = 10 * rho * direction
        lo_avg = clip_ball(PersonDataset(lo).person_means(), ball).mean(axis=0)
        hi_avg = clip_ball(PersonDataset(hi).person_means(), ball).mean(axis=0)
        assert math.isclose(np.linalg.norm(hi_avg - lo_avg), 2 * rho / n, rel_tol=1e-12)

    def test_sensitivity_never_exceeded_random_neighbors(self):
        n, m, d, rho = 32, 4, 3, 0.8
        ball = ClipBall(np.zeros(d), rho)
        rng = np.random.default_rng(5)
        base = rng.normal(size=(n, m, d))
        base_avg = clip_ball(PersonDataset(base).person_means(), ball).mean(axis=0)
        for _ in range(10**4):
            neighbor = base.copy()
            neighbor[rng.integers(n)] = rng.normal(scale=4, size=(m, d))
            avg = clip_ball(PersonDataset(neighbor).person_means(), ball).mean(axis=0)
            assert np.linalg.norm(avg - base_avg) <= 2 * rho / n + 1e-12


class TestSingleRound:
    def test_zero_variance_recovery(self):
        data = constant_dataset([0.3, -0.2, 0.1, 0.0], 3000, 100)
        report = estimate_single_round(data, PrivacyBudget(1e6, 1e-6), PARAMS4, 11)
        assert np.linalg.norm(report.estimate - np.array([0.3, -0.2, 0.1, 0.0])) < 1e-3

    def test_d1_consistency_with_est1d(self):
        # both pipelines solve the A1 instance within alpha
        from dpmean.est1d import estimate_mean_1d

        spec1 = SyntheticSpec("scaled_gaussian", mean=(0.3,), k=4.0)
        params = ProblemParams(k=4.0, alpha=0.15, beta=0.1, range_R=2.0)
        hits_hd = hits_1d = 0
        for trial in range(20):
            data = sample_dataset(spec1, 4096, 100, derive_seed(21, trial))
            hd = estimate_single_round(data, BUDGET, params, derive_seed(22, trial))
            e1 = estimate_mean_1d(data, PrivacyBudget(1.0, 0.0), params, derive_seed(23, trial))
            hits_hd += abs(hd.estimate[0] - 0.3) <= 0.15
            hits_1d += abs(e1.estimate[0] - 0.3) <= 0.15
        assert hits_hd >= 18 and hits_1d >= 18

    def test_report_fields(self):
        data = sample_dataset(SPEC4, 1024, 100, 3)
        report = estimate_single_round(data, BUDGET, PARAMS4, 11)
        assert "rho" in report.params and "u1" in report.params
        assert report.epsilon == 1.0 and report.delta == 1e-6


class TestTwoRound:
    def test_rho_order_and_ledger_exact(self):
        data = sample_dataset(SPEC4, 3072, 100, 3)
        report = estimate_two_round(data, BUDGET, PARAMS4, 11)
        assert report.params["rho1"] >= report.params["rho2"]
        assert (report.epsilon, report.delta) == (1.0, 1e-6)
        assert report.params["ledger"] == [(0.5, 5e-7), (0.25, 2.5e-7), (0.25, 2.5e-7)]

    def test_zero_variance_noiseless_recovery(self):
        data = constant_dataset([0.3, -0.2, 0.1, 0.0], 3000, 100)
        report = estimate_two_round(data, PrivacyBudget(1e6, 1e-6), PARAMS4, 11)
        np.testing.assert_allclose(report.estimate, [0.3, -0.2, 0.1, 0.0], atol=1e-3)

    def test_drops_remainder_people(self):
        data = sample_dataset(SPEC4, 3074, 100, 3)
        report = estimate_two_round(data, BUDGET, PARAMS4, 11)
        assert report.params["dropped_people"] == 2

    def test_deterministic(self):
        data = sample_dataset(SPEC4, 3072, 100, 3)
        a = estimate_two_round(data, BUDGET, PARAMS4, 11)
        b = estimate_two_round(data, BUDGET, PARAMS4, 11)
        np.testing.assert_array_equal(a.estimate, b.estimate)
