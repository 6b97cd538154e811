import math

import numpy as np
import pytest

from dpmean.core import (
    EstimationFailedError,
    ParameterError,
    PersonMeans,
    PrivacyBudget,
    ProblemParams,
    SyntheticSpec,
    derive_seed,
    sample_batch_means,
)
from dpmean.est1d import (
    DEFAULT_RHO_CONSTANT,
    choose_rho_1d,
    estimate_mean_1d,
    fine_estimate_1d,
    range_estimator,
)

GAUSS = SyntheticSpec("scaled_gaussian", mean=(0.3,), k=4.0)
PARAMS = ProblemParams(k=4.0, alpha=0.15, beta=0.1, range_R=2.0)


def draw(spec, n, m, seed):
    """n people's means of m samples each, from the one sampler."""
    return PersonMeans(sample_batch_means(spec, m, n, seed), m)


def constant_dataset(value, n, m):
    return PersonMeans(np.full((n, 1), float(value)), m)


def column(data):
    """The per-person means of a univariate dataset, shape (n,)."""
    return data.means[:, 0]


class TestRangeEstimator:
    def test_noiseless_bucketing(self):
        data = constant_dataset(0.4, 50, 4)
        res = range_estimator(column(data), data.m, PrivacyBudget(1e12, 0.0), r=1.0, R=2.0, seed=3)
        assert res == (0.0, 1.0)

    def test_precondition_errors(self):
        data = constant_dataset(0.4, 10, 4)
        with pytest.raises(ParameterError):
            range_estimator(column(data), data.m, PrivacyBudget(1.0), r=3.0, R=2.0, seed=3)
        with pytest.raises(ParameterError):  # sqrt(m) r < 2
            range_estimator(column(data), data.m, PrivacyBudget(1.0), r=0.5, R=2.0, seed=3)

    def test_accuracy_monte_carlo(self):
        # |mu_coarse - 0.3| < 2r in >= 95% of 200 seeded runs
        hits = 0
        for trial in range(200):
            data = draw(GAUSS, 500, 100, derive_seed(42, trial))
            lo, hi = range_estimator(
                column(data), data.m, PrivacyBudget(1.0, 0.0), r=0.4, R=2.0,
                seed=derive_seed(43, trial),
            )
            hits += abs((lo + hi) / 2 - 0.3) < 0.8
        assert hits / 200 >= 0.95

    def test_tiny_epsilon_failure_rate_smoke(self):
        # with eps = 0.001 the histogram is noise-dominated; record the
        # failure frequency, assert only that the call returns or fails cleanly
        outcomes = []
        for trial in range(20):
            data = draw(GAUSS, 200, 100, derive_seed(5, trial))
            try:
                lo, hi = range_estimator(
                    column(data), data.m, PrivacyBudget(0.001, 0.0), r=0.4, R=2.0,
                    seed=derive_seed(6, trial),
                )
                outcomes.append(abs((lo + hi) / 2 - 0.3) < 0.8)
            except EstimationFailedError:
                outcomes.append(False)
        assert len(outcomes) == 20

    def test_all_buckets_suppressed_raises(self):
        data = constant_dataset(0.4, 5, 16)
        with pytest.raises(EstimationFailedError):
            range_estimator(column(data), data.m, PrivacyBudget(0.01, 1e-9), r=1.0, R=2.0, seed=3)


class TestFineEstimate:
    def test_no_clip_no_noise_recovers_grand_mean(self):
        data = draw(GAUSS, 100, 10, 3)
        # no clipping; noise scale 2e-11
        estimate, scale = fine_estimate_1d(
            column(data), PrivacyBudget(1e12, 0.0), 0.5, rho=1e3, u_err=0.0, seed=7
        )
        grand = column(data).mean()
        assert abs(estimate - grand) < 1e-9
        assert scale == 2 * 1e3 / (100 * 1e12)

    def test_laplace_tail_frequency(self):
        # constant data: |estimate - c| <= (2 rho/(n eps)) ln(2/beta) w.p. >= 1-beta
        data = constant_dataset(0.25, 64, 8)
        rho = 1.0
        budget = PrivacyBudget(1.0, 0.0)
        beta = 0.05
        bound = (2 * rho / (64 * budget.epsilon)) * math.log(2 / beta)
        hits = 0
        reps = 10**4
        for rep in range(reps):
            estimate, _ = fine_estimate_1d(
                column(data), budget, 0.25, rho, 0.1, seed=derive_seed(11, rep)
            )
            hits += abs(estimate - 0.25) <= bound
        assert hits / reps >= 1 - beta

    def test_requires_pure_budget(self):
        data = constant_dataset(0.0, 8, 4)
        with pytest.raises(ParameterError):
            fine_estimate_1d(column(data), PrivacyBudget(1.0, 1e-6), 0.0, 1.0, 0.0, 3)

    def test_requires_rho_above_u_err(self):
        data = constant_dataset(0.0, 8, 4)
        with pytest.raises(ParameterError):
            fine_estimate_1d(column(data), PrivacyBudget(1.0), 0.0, 0.5, 0.6, 3)


class TestChooseRho:
    def test_frozen_example(self):
        # n=1e4, m=100, eps=1, beta=0.1, k=4, c=4 -> 2.5136166570400063
        val = choose_rho_1d(10**4, 100, 1.0, 0.1, 4.0)
        assert math.isclose(val, 2.5136166570400063, rel_tol=1e-12)

    def test_monotone_in_n(self):
        vals = [choose_rho_1d(n, 100, 1.0, 0.1, 4.0) for n in (10, 100, 1000, 10000)]
        assert all(a < b for a, b in zip(vals, vals[1:]))


class TestSensitivityWitness:
    def test_adversarial_neighbor_achieves_2rho_over_n(self):
        # one person moved from the lower clamp to the upper clamp shifts the
        # pre-noise truncated mean by exactly 2 rho / n
        n, m, rho, center = 32, 4, 0.7, 0.1
        base = column(draw(GAUSS, n, m, 5))
        low = base.copy()
        low[0] = center - 10 * rho
        high = base.copy()
        high[0] = center + 10 * rho
        lo_mean = np.clip(low, center - rho, center + rho).mean()
        hi_mean = np.clip(high, center - rho, center + rho).mean()
        assert math.isclose(hi_mean - lo_mean, 2 * rho / n, rel_tol=1e-12)

    def test_random_neighbors_never_exceed(self):
        n, m, rho, center = 16, 4, 0.7, 0.0
        rng = np.random.default_rng(7)
        base = rng.normal(size=(n, m, 1))
        base_mean = np.clip(base.mean(axis=1)[:, 0], -rho, rho).mean()
        for _ in range(2000):
            neighbor = base.copy()
            neighbor[rng.integers(n)] = rng.normal(scale=5, size=(m, 1))
            shifted = np.clip(neighbor.mean(axis=1)[:, 0], -rho, rho).mean()
            assert abs(shifted - base_mean) <= 2 * rho / n + 1e-12


class TestEstimateMean1d:
    def test_zero_variance_within_noise_tail(self):
        data = constant_dataset(0.3, 2048, 100)
        report = estimate_mean_1d(data, PrivacyBudget(1.0, 0.0), PARAMS, 9)
        rho = report.params["rho"]
        bound = (2 * rho / (2048 * 0.5)) * math.log(2 / 0.001)  # beta' = 0.001 tail
        assert abs(report.estimate[0] - 0.3) <= bound

    def test_budget_split_recorded(self):
        data = constant_dataset(0.3, 1024, 100)
        report = estimate_mean_1d(data, PrivacyBudget(1.0, 0.0), PARAMS, 9)
        entries = report.params["ledger"]
        assert entries == [(0.5, 0.0, 0), (0.5, 0.0, 0)]
        assert report.epsilon == 1.0
        assert report.delta == 0.0

    def test_constant_recorded(self):
        data = constant_dataset(0.3, 1024, 100)
        report = estimate_mean_1d(data, PrivacyBudget(1.0, 0.0), PARAMS, 9)
        assert report.params["constant_c"] == DEFAULT_RHO_CONSTANT

    def test_approx_budget_switches_histogram(self):
        data = constant_dataset(0.3, 4096, 100)
        report = estimate_mean_1d(data, PrivacyBudget(1.0, 1e-6), PARAMS, 9)
        assert report.delta == 1e-6
        assert abs(report.estimate[0] - 0.3) < 0.1

    def test_deterministic(self):
        data = constant_dataset(0.3, 1024, 100)
        a = estimate_mean_1d(data, PrivacyBudget(1.0, 0.0), PARAMS, 9)
        b = estimate_mean_1d(data, PrivacyBudget(1.0, 0.0), PARAMS, 9)
        assert a.estimate[0] == b.estimate[0]

    def test_report_json_fields(self):
        import json

        data = constant_dataset(0.3, 1024, 100)
        report = estimate_mean_1d(data, PrivacyBudget(1.0, 0.0), PARAMS, 9)
        payload = json.loads(report.to_json())
        for key in ("estimate", "rho", "mu_coarse", "epsilon", "delta", "seed", "wall_time_ms"):
            assert key in payload


class TestCoarseFractionProperty:
    def test_fraction_outside_r_below_sixteenth(self):
        # with sqrt(m) r >= 16^{1/k}, at most 1/16 of per-person averages
        # fall outside mu +- r (here overwhelmingly fewer)
        r, m = 1.0, 16
        assert math.sqrt(m) * r >= 16 ** (1 / 4)
        bad_runs = 0
        for trial in range(50):
            data = draw(GAUSS, 256, m, derive_seed(3, trial))
            frac = np.mean(np.abs(column(data) - 0.3) > r)
            bad_runs += frac > 1 / 16
        assert bad_runs == 0


@pytest.mark.slow
class TestErrorScaling:
    def test_error_decreases_as_n_doubles(self):
        budget = PrivacyBudget(1.0, 0.0)
        medians = []
        for n in [2**j for j in range(10, 17)]:
            errs = []
            for trial in range(50):
                data = draw(GAUSS, n, 100, derive_seed(1000 + n, trial))
                rep = estimate_mean_1d(data, budget, PARAMS, derive_seed(2000 + n, trial))
                errs.append(abs(rep.estimate[0] - 0.3))
            medians.append(float(np.median(errs)))
        for prev, nxt in zip(medians, medians[1:]):
            assert nxt <= prev * 1.1  # monotone within MC noise
