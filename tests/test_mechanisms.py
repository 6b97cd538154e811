import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpmean.core import ParameterError, PrivacyBudget, derive_seed
from dpmean.mechanisms import (
    BudgetLedger,
    _laplace,
    exponential_mechanism,
    laplace_noise,
    private_histogram,
)


class TestLaplace:
    def test_tail_bound_frozen(self):
        # P[|Lap(1)| >= 3] = e^-3 = 0.049787...; empirical <= 1.1x
        draws = laplace_noise(1.0, seed=5, size=10**6)
        emp = float(np.mean(np.abs(draws) >= 3.0))
        assert emp <= 0.049787068367863944 * 1.1

    @pytest.mark.parametrize("t", [1, 2, 3, 4])
    def test_tail_bound_grid(self, t):
        draws = laplace_noise(1.5, seed=11, size=10**6)
        assert float(np.mean(np.abs(draws) >= t * 1.5)) <= 1.1 * math.exp(-t)

    def test_symmetry(self):
        draws = laplace_noise(1.0, seed=2, size=10**6)
        assert -0.01 <= draws.mean() <= 0.01

    def test_stddev_closed_form(self):
        # Var(Lap(b)) = 2 b^2, so sd = 2 sqrt(2) at b = 2
        draws = laplace_noise(2.0, seed=3, size=10**6)
        assert math.isclose(draws.std(ddof=1), 2 * math.sqrt(2), rel_tol=0.02)

    def test_scalar_and_determinism(self):
        assert laplace_noise(1.0, seed=4) == laplace_noise(1.0, seed=4)
        with pytest.raises(ParameterError):
            laplace_noise(0.0, seed=4)

    def test_zero_uniform_gives_finite_draw(self):
        # rng.random() may return exactly 0.0; the draw is then the capped
        # extreme -scale * 53 ln 2, not -inf, for a scalar and for an array.
        class ZeroUniform:
            def random(self, size=None):
                return 0.0 if size is None else np.zeros(size)

        scalar = _laplace(ZeroUniform(), 2.0)
        array = _laplace(ZeroUniform(), 2.0, 3)
        assert math.isfinite(scalar)
        assert np.isfinite(array).all()
        assert math.isclose(scalar, -2.0 * 53 * math.log(2), rel_tol=1e-12)
        np.testing.assert_array_equal(array, np.full(3, scalar))

    def test_smallest_nonzero_uniform_unchanged(self):
        # the cap leaves every nonzero uniform's draw as the uncapped formula gives it
        class TinyUniform:
            def random(self, size=None):
                return 2.0**-53

        u = 2.0**-53 - 0.5
        assert _laplace(TinyUniform(), 1.0) == -np.sign(u) * np.log1p(-2.0 * abs(u))


# At epsilon = 1e12 the Laplace noise is below 1e-10, so rounded noisy
# counts are the true counts.
NOISELESS = PrivacyBudget(1e12, 0.0)


class TestHistogramGrid:
    def test_grid_alignment(self):
        edges, counts, released = private_histogram([], 1.0, 1.0, NOISELESS, 3)
        np.testing.assert_allclose(edges, [-3, -2, -1, 0, 1, 2, 3])
        assert len(counts) == len(released) == 6

    def test_half_range_rounded_up(self):
        # R = 1 rounds up to 1.2 = 3 r at r = 0.4, so the grid spans [-2, 2)
        edges, counts, _ = private_histogram([], 0.4, 1.0, NOISELESS, 3)
        assert len(counts) == 10
        assert math.isclose(edges[0], -2.0)
        assert math.isclose(edges[-1], 2.0)

    def test_bucket_index_right_open(self):
        points = [0.0, 0.999, 1.0, -3.0, 3.0, -3.001]
        _, counts, _ = private_histogram(points, 1.0, 1.0, NOISELESS, 3)
        assert [round(c) for c in counts] == [1, 0, 0, 2, 1, 0]

    @pytest.mark.parametrize("r, R", [(0.1, 0.9), (0.3, 1.0)])
    def test_point_an_ulp_below_the_top_edge_lands_in_the_last_bucket(self, r, R):
        # the grid is [lo, -lo); (x - lo) / r rounds up to the bucket count
        # at these widths
        edges, _, _ = private_histogram([], r, R, NOISELESS, 3)
        x = np.nextafter(-edges[0], -np.inf)
        _, counts, _ = private_histogram([x], r, R, NOISELESS, 3)
        assert round(counts[-1]) == 1 and round(counts.sum()) == 1

    def test_grid_needs_positive_widths(self):
        for r, R in ((0.0, 1.0), (1.0, 0.0)):
            with pytest.raises(ParameterError):
                private_histogram([], r, R, NOISELESS, 3)


class TestPrivateHistogram:
    def test_noiseless_limit(self):
        _, counts, _ = private_histogram([0.1, 0.2, 1.5], 1.0, 1.0, NOISELESS, 3)
        assert round(counts[3]) == 2  # [0, 1)
        assert round(counts[4]) == 1  # [1, 2)
        assert all(round(c) == 0 for i, c in enumerate(counts) if i not in (3, 4))

    def test_pure_linf_error_union_bound(self):
        # max |noisy - true| <= (2/eps) ln(2 * 20 * 1e4) in >= 99% of 1e4 runs
        budget = PrivacyBudget(1.0, 0.0)
        bound = 2.0 * math.log(2 * 20 * 10**4)
        bad = 0
        reps = 10**4
        for rep in range(reps):
            _, counts, _ = private_histogram([], 0.1, 0.9, budget, derive_seed(99, rep))
            assert len(counts) == 22
            if np.abs(counts).max() > bound:
                bad += 1
        assert bad / reps <= 0.01

    def test_pure_linf_error_beta_frequency(self):
        # measured max error <= 2/eps ln(2 |U|/beta) with frequency >= 1 - beta
        beta = 0.05
        hits = 0
        reps = 2000
        for rep in range(reps):
            seed = derive_seed(123, rep)
            _, counts, _ = private_histogram([], 0.1, 0.9, PrivacyBudget(1.0, 0.0), seed)
            if np.abs(counts).max() <= 2.0 * math.log(2 * len(counts) / beta):
                hits += 1
        assert hits / reps >= 1 - beta

    def test_stability_threshold_value(self):
        # threshold = 1 + 2 ln(2/delta)/eps = 30.017 at delta=1e-6, eps=1
        assert math.isclose(1 + 2 * math.log(2 / 1e-6), 30.017315477048438, rel_tol=1e-12)

    def test_empty_buckets_never_released(self):
        budget = PrivacyBudget(1.0, 1e-6)
        data = [0.5] * 100  # one heavy bucket, everything else empty
        releases_of_empty = 0
        for rep in range(10**5 // 100):
            _, _, released = private_histogram(data, 1.0, 1.0, budget, derive_seed(7, rep))
            released_empty = released.copy()
            released_empty[3] = False  # ignore the occupied bucket
            releases_of_empty += int(released_empty.any())
        assert releases_of_empty == 0

    def test_heavy_bucket_released_when_count_clears_threshold(self):
        _, _, released = private_histogram([0.5] * 1000, 1.0, 1.0, PrivacyBudget(1.0, 1e-6), 3)
        assert released[3]

    def test_out_of_range_dropped_and_counted(self):
        # the point in the grid is counted; the two outside it are dropped
        _, counts, _ = private_histogram([0.0, 100.0, -50.0], 1.0, 1.0, NOISELESS, 3)
        assert [round(c) for c in counts] == [0, 0, 0, 1, 0, 0]


class TestExponentialMechanism:
    def test_uniform_on_equal_scores(self):
        counts = {c: 0 for c in range(4)}
        for rep in range(10**5):
            pick = exponential_mechanism(
                ((c, 1.0) for c in range(4)), 1.0, 1.0, derive_seed(5, rep)
            )
            counts[pick] += 1
        for c in range(4):
            assert abs(counts[c] / 10**5 - 0.25) <= 0.01

    def test_two_candidate_ratio(self):
        # P[high]/P[low] = e^{eps * s / 2} = e at eps=1, s=2
        high = 0
        reps = 10**6
        for rep in range(reps):
            pick = exponential_mechanism(
                [("lo", 0.0), ("hi", 2.0)], 1.0, 1.0, derive_seed(31, rep)
            )
            high += pick == "hi"
        ratio = high / (reps - high)
        assert abs(ratio - math.e) / math.e <= 0.03

    def test_epsilon_zero_uniform(self):
        counts = {c: 0 for c in range(3)}
        for rep in range(30_000):
            pick = exponential_mechanism(
                [(0, 0.0), (1, 100.0), (2, -5.0)], 1.0, 0.0, derive_seed(77, rep)
            )
            counts[pick] += 1
        for c in counts:
            assert abs(counts[c] / 30_000 - 1 / 3) <= 0.02

    def test_empty_stream_rejected(self):
        with pytest.raises(ParameterError):
            exponential_mechanism([], 1.0, 1.0, 3)

    def test_utility_guarantee_frequency(self):
        # Score(output) >= OPT - (2 Delta/eps)(ln|S| + t) w.p. >= 1 - e^-t
        rng_scores = np.random.default_rng(0).uniform(0, 10, size=200)
        opt = rng_scores.max()
        reps = 10**4
        shortfalls = np.empty(reps)
        for rep in range(reps):
            pick = exponential_mechanism(
                ((i, s) for i, s in enumerate(rng_scores)), 1.0, 1.0, derive_seed(13, rep)
            )
            shortfalls[rep] = opt - rng_scores[pick]
        for t in (1, 2, 3):
            threshold = 2.0 * (math.log(200) + t)
            freq = float(np.mean(shortfalls <= threshold))
            assert freq >= 1 - math.exp(-t)

    def test_deterministic_given_seed(self):
        scores = [(i, float(i % 5)) for i in range(50)]
        assert exponential_mechanism(scores, 1.0, 1.0, 9) == exponential_mechanism(
            scores, 1.0, 1.0, 9
        )


class TestBudgetLedger:
    def test_basic_additivity(self):
        ledger = BudgetLedger()
        ledger.add(0.5, 0.0)
        ledger.add(0.5, 0.0)
        assert ledger.total() == (1.0, 0.0)

    def test_empty_is_zero(self):
        assert BudgetLedger().total() == (0.0, 0.0)

    def test_add_returns_the_budget_it_records(self):
        ledger = BudgetLedger()
        budget = ledger.add(0.25, 1e-7)
        assert budget == PrivacyBudget(0.25, 1e-7)
        assert ledger.entries == [(0.25, 1e-7, 0)]

    @pytest.mark.parametrize(
        "charge", [(0.5, 1.0), (math.inf,), (0.0,)], ids=["delta_one", "eps_inf", "eps_zero"]
    )
    def test_refuses_a_charge_that_is_not_a_budget(self, charge):
        ledger = BudgetLedger()
        with pytest.raises(ParameterError):
            ledger.add(*charge)
        assert ledger.entries == []

    def test_charges_within_a_group_sum(self):
        ledger = BudgetLedger()
        for _ in range(10):
            ledger.add(0.1, 1e-8, group=3)
        assert ledger.total() == (math.fsum([0.1] * 10), math.fsum([1e-8] * 10))
        assert ledger.total() == (1.0, 1e-7)

    def test_groups_compose_by_maximum(self):
        # disjoint groups compose in parallel, epsilon and delta separately:
        # group 0 has the larger delta, group 1 the larger epsilon
        ledger = BudgetLedger()
        ledger.add(0.5, 1e-7, group=0)
        ledger.add(0.5, 1e-7, group=0)
        ledger.add(0.8, 0.0, group=1)
        assert ledger.total() == (1.0, 2e-7)
        ledger.add(0.3, 0.0, group=1)
        assert ledger.total() == (1.1, 2e-7)

    @given(
        st.lists(
            st.tuples(
                st.floats(0.01, 10, allow_nan=False),
                st.floats(0, 0.1, allow_nan=False),
                st.integers(0, 3),
            ),
            min_size=1,
            max_size=20,
        ),
        st.randoms(),
    )
    @settings(max_examples=50, deadline=None)
    def test_basic_total_order_invariant(self, entries, rand):
        ledger = BudgetLedger()
        for eps, delta, group in entries:
            ledger.add(eps, delta, group)
        shuffled = entries[:]
        rand.shuffle(shuffled)
        other = BudgetLedger()
        for eps, delta, group in shuffled:
            other.add(eps, delta, group=group)
        a, b = ledger.total(), other.total()
        assert a == b  # fsum is exactly rounded, so order cannot move a bit
        groups = {g for *_, g in entries}
        assert a[0] == max(math.fsum(e for e, _, g in entries if g == h) for h in groups)
        assert a[1] == max(math.fsum(dl for _, dl, g in entries if g == h) for h in groups)
