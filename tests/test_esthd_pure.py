import math

import numpy as np
import pytest

from dpmean import est1d, esthd_pure
from dpmean.core import (
    ConfigurationError,
    EstimationFailedError,
    ParameterError,
    PersonMeans,
    PrivacyBudget,
    ProblemParams,
    SyntheticSpec,
    derive_rng,
    derive_seed,
    sample_batch_means,
)
from dpmean.esthd_pure import (
    _flip_costs,
    _project_batch,
    comparison_rho,
    estimate_pure_full,
    fine_est_pure,
    global_cover,
    local_cover,
    mom_subsample_count,
    score_candidate,
)


def gauss(mean, k=4.0):
    return SyntheticSpec("scaled_gaussian", mean=tuple(np.atleast_1d(mean)), k=k)


def draw(spec, n, m, seed):
    """n people's means of m samples each, from the one sampler."""
    return PersonMeans(sample_batch_means(spec, m, n, seed), m)


def compare(means, m, p, q, alpha, beta, seed, k):
    """The paper's binary mean comparison of p against one challenger q, run
    through the batch path that score_candidate uses.  Returns (margin,
    q_wins): q_wins when the median lands above the p/q midpoint, and
    otherwise margin is the greedy number of whole-batch corruptions that
    make q win."""
    block_means, midpoints, block, rho = _project_batch(
        means, m, p, q[None, :], alpha, beta, seed, k
    )
    margins, q_wins = _flip_costs(block_means, midpoints, block, rho)
    return float(margins[0]), bool(q_wins[0])


def clip_then_block_mean(means, m, p, challengers, alpha, beta, seed, k):
    """Reference for _project_batch's block means: project every used person
    on every direction, truncate at rho around p's projection, then average
    each block."""
    n = means.shape[0]
    k_mom = mom_subsample_count(beta)
    block = n // k_mom
    rho = comparison_rho(m, k, alpha)
    diff = challengers - p
    dirs = diff / np.linalg.norm(diff, axis=1)[:, None]
    p0 = dirs @ p
    perm = derive_rng(seed).permutation(n)[: block * k_mom]
    proj = np.clip(means[perm] @ dirs.T, p0 - rho, p0 + rho)
    return proj.reshape(k_mom, block, -1).mean(axis=1)


class TestConfigHelpers:
    def test_rho_formula(self):
        # c * (sqrt((k-1) ln m / m) + 1/(m alpha^{1/(k-1)}))
        val = comparison_rho(64, 4.0, 0.25)
        expected = 8 * (math.sqrt(3 * math.log(64) / 64) + 1 / (64 * 0.25 ** (1 / 3)))
        assert math.isclose(val, expected, rel_tol=1e-12)

    def test_subsample_count_odd(self):
        # ceil(10 ln 10) = 24 -> bumped to 25
        assert mom_subsample_count(0.1) == 25
        assert mom_subsample_count(0.1) % 2 == 1
        assert mom_subsample_count(0.025) == 37  # already odd

    def test_mom_block_size_precondition_shape(self):
        # n / k_mom >= 10 / (m alpha^2) on the acceptance instance
        n, m, alpha = 2**14, 64, 8 * 0.25 / 9
        k_mom = mom_subsample_count(0.1 / (2 * 4))
        assert n // k_mom >= 10 / (m * alpha**2)


class TestCovers:
    def test_global_cover_d1(self):
        cover = global_cover(0.25, 1)
        np.testing.assert_allclose(cover.ravel(), [-0.25, 0.25])

    def test_global_cover_d2(self):
        cover = global_cover(0.25, 2)
        assert len(cover) == 9  # {-a, 0, a}^2
        assert np.max(np.abs(cover)) <= 0.25

    def test_local_cover_d1_counts(self):
        cover = local_cover(np.array([0.0]), 1.0, 1)
        # 17 grid points, the 9 with |x| <= 1 removed
        assert len(cover) == 8
        assert np.min(np.abs(cover)) > 1.0
        assert np.max(np.abs(cover)) <= 2.0

    def test_local_cover_excludes_ball(self):
        p = np.array([0.1, -0.2])
        cover = local_cover(p, 0.5, 2)
        dists = np.linalg.norm(cover - p, axis=1)
        assert dists.min() > 0.5
        assert np.max(np.abs(cover - p)) <= 1.0 + 1e-12

    def test_local_cover_step(self):
        cover = local_cover(np.array([0.0]), 1.0, 1)
        steps = np.diff(np.sort(cover[:, 0]))
        # neighbours sit alpha/(4 sqrt d) = 0.25 apart at d = 1; the one wide
        # gap is the excluded ball around p
        np.testing.assert_allclose(np.delete(steps, np.argmax(steps)), 0.25)
        assert steps.max() > 2.0


class TestBinMeanComp:
    """The one-challenger comparison through _project_batch and _flip_costs."""

    def test_mean_at_p_wins(self):
        data = draw(gauss([0.0, 0.0]), 4096, 64, 3)
        margin, q_wins = compare(
            data.means, data.m, np.zeros(2), np.array([2.0, 0.0]), 0.25, 0.1, 7, k=4.0
        )
        assert not q_wins
        assert margin > 0

    def test_mean_at_q_loses(self):
        data = draw(gauss([2.0, 0.0]), 4096, 64, 3)
        _, q_wins = compare(
            data.means, data.m, np.zeros(2), np.array([2.0, 0.0]), 0.25, 0.1, 7, k=4.0
        )
        assert q_wins

    def test_symmetric_margin_small(self):
        # p, q symmetric about the data mean: whichever of the two wins with
        # the other as challenger, its margin is < 0.1 * n * alpha / rho
        n, alpha = 4096, 0.25
        data = draw(gauss([0.5, 0.0]), n, 64, 3)
        rho = comparison_rho(64, 4.0, alpha)
        p, q = np.array([0.0, 0.0]), np.array([1.0, 0.0])
        winner_margins = []
        for a, b in ((p, q), (q, p)):
            margin, b_wins = compare(data.means, data.m, a, b, alpha, 0.1, 7, k=4.0)
            if not b_wins:
                winner_margins.append(margin)
        assert winner_margins
        assert all(margin < 0.1 * n * alpha / rho for margin in winner_margins)

    def test_identical_points_rejected(self):
        data = draw(gauss([0.0]), 256, 8, 3)
        with pytest.raises(ParameterError):
            compare(data.means, data.m, np.zeros(1), np.zeros(1), 0.25, 0.1, 7, k=4.0)

    def test_too_few_people_rejected(self):
        data = draw(gauss([0.0]), 10, 8, 3)
        with pytest.raises(ConfigurationError):
            compare(data.means, data.m, np.zeros(1), np.ones(1), 0.25, 0.1, 7, k=4.0)

    def test_deterministic(self):
        data = draw(gauss([0.0, 0.0]), 1024, 16, 3)
        means = data.means
        a = compare(means, data.m, np.zeros(2), np.array([1.0, 0.0]), 0.25, 0.1, 7, k=4.0)
        b = compare(means, data.m, np.zeros(2), np.array([1.0, 0.0]), 0.25, 0.1, 7, k=4.0)
        assert a == b

    def test_margin_lower_bound_score1_regime(self):
        # ||p - mu|| <= alpha/8, ||p - q|| > alpha: margin >= n alpha / (64 rho)
        # in >= 95% of 100 seeded runs
        n, m, alpha, k = 4096, 64, 0.25, 4.0
        mu = np.array([alpha / 16, 0.0])
        rho = comparison_rho(m, k, alpha)
        floor = n * alpha / (64 * rho)
        q = np.array([1.5 * alpha, 0.0])
        hits = 0
        for trial in range(100):
            data = draw(gauss(mu), n, m, derive_seed(1234, trial))
            margin, q_wins = compare(
                data.means, data.m, np.zeros(2), q, alpha, 0.1, derive_seed(99, trial), k=k
            )
            hits += not q_wins and margin >= floor
        assert hits >= 95


class TestProjectBatchLinearity:
    """_project_batch block-averages before it projects and truncates only
    the people beyond rho of p; margins and verdicts match truncating every
    projection first."""

    M, K, ALPHA, BETA = 64, 4.0, 8 * 0.25 / 9, 0.1 / 18
    T5 = SyntheticSpec("student_t", mean=(0.0, 0.05), k=4.0, extra={"df": 5.0})

    @staticmethod
    def planted(means, seed, count, radii):
        # count people moved radii[0] to radii[1] away from the origin, beyond rho
        rng = np.random.default_rng(seed)
        means = means.copy()
        angle = rng.uniform(0, 2 * np.pi, count)
        radius = rng.uniform(*radii, count)
        rows = rng.choice(means.shape[0], count, replace=False)
        means[rows] = radius[:, None] * np.stack([np.cos(angle), np.sin(angle)], axis=1)
        return means

    @pytest.mark.parametrize(
        "spec,n,plant,radii",
        [
            (gauss([0.02, -0.02]), 2**12, 0, None),
            (gauss([0.02, -0.02]), 2**12, 200, (4, 12)),
            (T5, 2**11, 0, None),
            (T5, 2**11, 40, (4, 12)),
            # a person ~1e20 away (ulp 16384) swamps an unclipped block sum
            # of O(1) neighbours
            (gauss([0.02, -0.02]), 2**14, 40, (1e20, 3e20)),
            # blocks holding two people near the float limit overflow an
            # unclipped block sum to inf
            (gauss([0.02, -0.02]), 2**12, 200, (1e308, 1.7e308)),
        ],
    )
    def test_matches_clip_then_block_mean(self, spec, n, plant, radii):
        means = sample_batch_means(spec, self.M, n, 21)
        if plant:
            means = self.planted(means, 22, plant, radii)
        far_people = 0
        for i, p in enumerate(global_cover(0.25, 2)):
            challengers = local_cover(p, self.ALPHA, 2)
            seed = derive_seed(7, i)
            args = (means, self.M, p, challengers, self.ALPHA, self.BETA, seed, self.K)
            block_means, midpoints, block, rho = _project_batch(*args)
            expected = clip_then_block_mean(*args)
            np.testing.assert_allclose(block_means, expected, rtol=0, atol=1e-12)
            margins, flags = _flip_costs(block_means, midpoints, block, rho)
            ref_margins, ref_flags = _flip_costs(expected, midpoints, block, rho)
            np.testing.assert_array_equal(margins, ref_margins)
            np.testing.assert_array_equal(flags, ref_flags)
            with np.errstate(over="ignore"):
                far = np.linalg.norm(means - p, axis=1) > rho
            far_people += np.count_nonzero(far)
            if radii is not None and radii[0] > 1e300:
                perm = derive_rng(seed).permutation(n)[: block * len(block_means)]
                assert np.bincount(np.flatnonzero(far[perm]) // block).max() >= 2
        assert (far_people > 0) == (plant > 0)


class TestScoreCandidate:
    def test_score_positive_at_truth(self):
        mu = np.array([0.25 / 9])
        data = draw(gauss(mu), 2**13, 64, 3)
        score = score_candidate(data.means, data.m, np.zeros(1), 0.25, 0.01, 7, k=4.0)
        assert score > 0

    def test_score_zero_far_from_truth(self):
        # ||p - mu|| > 9 alpha / 8 => score 0 whp
        alpha = 0.25
        data = draw(gauss([1.5 * alpha]), 2**13, 64, 3)
        score = score_candidate(data.means, data.m, np.zeros(1), alpha, 0.01, 7, k=4.0)
        assert score == 0.0

    def test_score_capped(self):
        data = PersonMeans(np.zeros((512, 1)), 16)  # all mass at the candidate
        score = score_candidate(data.means, data.m, np.zeros(1), 0.25, 0.1, 7, k=4.0)
        assert 0 <= score <= 512 * 0.25

    def test_sensitivity_one_batch(self):
        # |score(X) - score(X')| <= 1 over 1000 random one-person replacements
        n, m, alpha, k = 2048, 16, 0.25, 4.0
        base = draw(gauss([alpha / 9]), n, m, 3)
        base_score = score_candidate(base.means, m, np.zeros(1), alpha, 0.1, 7, k=k)
        rng = np.random.default_rng(5)
        violations = 0
        for _ in range(1000):
            neighbor = base.means.copy()
            person = rng.integers(n)
            neighbor[person] = rng.normal(loc=rng.uniform(-3, 3), size=(m, 1)).mean(axis=0)
            score = score_candidate(neighbor, m, np.zeros(1), alpha, 0.1, 7, k=k)
            if abs(score - base_score) > 1 + 1e-9:
                violations += 1
        assert violations == 0

    def test_monotone_under_corruption(self):
        # moving people toward an adversarial far value never raises the score
        n, m, alpha, k = 2048, 16, 0.25, 4.0
        base = draw(gauss([alpha / 9]), n, m, 3)
        scores = []
        means = base.means.copy()
        rng = np.random.default_rng(11)
        order = rng.permutation(n)
        for batch in range(0, 200, 40):
            for person in order[batch : batch + 40]:
                means[person] = 5.0
            scores.append(
                score_candidate(means, m, np.zeros(1), alpha, 0.1, 7, k=k)
            )
        assert all(b <= a + 1e-9 for a, b in zip(scores, scores[1:]))


class TestMoMRobustness:
    def test_corrupted_minority_stays_within_extremes(self):
        # corrupting < 0.4 k_mom blocks cannot push the median beyond the
        # extremes realized by the untouched blocks
        rng = np.random.default_rng(3)
        k_mom = mom_subsample_count(0.1)
        block = 64
        samples = rng.normal(size=(k_mom, block))
        block_means = samples.mean(axis=1)
        lo, hi = block_means.min(), block_means.max()
        n_corrupt = int(0.4 * k_mom) - 1
        for direction in (+1e9, -1e9):
            corrupted = block_means.copy()
            corrupted[rng.permutation(k_mom)[:n_corrupt]] = direction
            med = np.median(corrupted)
            assert lo <= med <= hi


class TestFineEstPure:
    def test_uniform_when_scores_forced_equal(self):
        # degenerate data (all people identical at a cover point) gives the
        # same score landscape under every seed; across seeds the argmax
        # must still be deterministic per seed
        data = PersonMeans(np.zeros((512, 1)), 16)
        params = ProblemParams(k=4.0, alpha=0.25, beta=0.1, range_R=2.0)
        a = fine_est_pure(data.means, data.m, params, PrivacyBudget(2.0), 3)
        b = fine_est_pure(data.means, data.m, params, PrivacyBudget(2.0), 3)
        np.testing.assert_array_equal(a, b)

    def test_rejects_high_dimension(self):
        data = PersonMeans(np.zeros((32, 5)), 4)
        params = ProblemParams(k=4.0, alpha=0.25, beta=0.1, range_R=2.0)
        with pytest.raises(ConfigurationError, match="cover"):
            fine_est_pure(data.means, data.m, params, PrivacyBudget(2.0), 3)

    def test_d1_recovers_near_cover_point(self):
        params = ProblemParams(k=4.0, alpha=0.25, beta=0.1, range_R=2.0)
        mu = np.array([-0.25 + 0.25 / 9])
        hits = 0
        for trial in range(10):
            data = draw(gauss(mu), 2**13, 64, derive_seed(200, trial))
            est = fine_est_pure(
                data.means, data.m, params, PrivacyBudget(2.0), derive_seed(201, trial)
            )
            hits += np.linalg.norm(est - mu) <= 0.25
        assert hits >= 9


class TestEstimatePureFull:
    def test_zero_variance_recovery_and_accounting(self):
        mu = np.array([0.11])
        data = PersonMeans(np.full((2048, 1), 0.11), 64)
        params = ProblemParams(k=4.0, alpha=0.25, beta=0.1, range_R=2.0)
        report = estimate_pure_full(data, PrivacyBudget(2.0), params, 5)
        # coarse phase localizes mu, fine phase picks the nearest cover point
        # after recentering; the ledger composes the two phases in parallel
        assert report.delta == 0.0
        assert report.epsilon == 2.0
        assert report.params["ledger"] == [(1.0, 0.0, 0), (1.0, 0.0, 0), (2.0, 0.0, 1)]
        assert np.linalg.norm(report.estimate - mu) <= 0.25 + report.params["mu_coarse"].size * 0.0

    def test_winning_point_is_nearest_grid_point(self):
        mu = np.array([0.11])
        data = PersonMeans(np.full((2048, 1), 0.11), 64)
        params = ProblemParams(k=4.0, alpha=0.25, beta=0.1, range_R=2.0)
        report = estimate_pure_full(data, PrivacyBudget(2.0), params, 5)
        mu_coarse = report.params["mu_coarse"]
        cover = global_cover(params.alpha, 1)
        recentered_mu = 0.11 - mu_coarse[0]
        nearest = cover[np.argmin(np.abs(cover[:, 0] - recentered_mu))]
        assert math.isclose(report.estimate[0], nearest[0] + mu_coarse[0], rel_tol=1e-12)

    def test_reports_the_budget_its_coarse_stages_spent(self):
        # at d = 3, 3.44 / 3 rounds up, and six coarse charges of half of it
        # would fsum to an ulp past 3.44; the split charges an ulp less, and
        # the report is the ledger's grouped fsum
        data = PersonMeans(np.random.default_rng(11).normal(0.1, 0.05, size=(256, 3)), 64)
        params = ProblemParams(k=4.0, alpha=0.5, beta=0.1, range_R=2.0)
        report = estimate_pure_full(data, PrivacyBudget(3.44), params, 5)
        ledger = report.params["ledger"]
        share = ledger[0][0]
        assert share < 3.44 / 3 / 2
        assert ledger == [(share, 0.0, 0)] * 6 + [(3.44, 0.0, 1)]
        sums = [math.fsum(e for e, _, g in ledger if g == group) for group in (0, 1)]
        assert (report.epsilon, report.delta) == (max(sums), 0.0)
        assert report.epsilon <= 3.44

    def test_never_reports_more_than_epsilon(self, monkeypatch):
        # eps / d rounds up at d = 3 for 63 of these 3,996 pairs, and the 2d
        # coarse charges of eps / d / 2 would then fsum to an ulp past eps.
        # The fine stage, stubbed out here, charges eps to its own group.
        monkeypatch.setattr(
            esthd_pure, "fine_est_pure", lambda means, m, params, budget, seed: means[0] * 0
        )
        params = ProblemParams(k=4.0, alpha=0.5, beta=0.1, range_R=2.0)
        for d in (1, 2, 3, 4):
            data = PersonMeans(np.random.default_rng(11).normal(0.1, 0.05, size=(64, d)), 4096)
            for i in range(1, 1000):
                report = estimate_pure_full(data, PrivacyBudget(i / 100), params, 5)
                assert report.epsilon == i / 100, (i / 100, d)

    def test_rejects_delta(self):
        # the estimator spends no delta, so a requested one must not be dropped silently
        data = PersonMeans(np.full((64, 1), 0.11), 64)
        params = ProblemParams(k=4.0, alpha=0.25, beta=0.1, range_R=2.0)
        with pytest.raises(ParameterError, match="delta"):
            estimate_pure_full(data, PrivacyBudget(2.0, 1e-6), params, 5)

    def test_coarse_failure_names_coordinate(self, monkeypatch):
        # The pure histogram releases every bucket, so the coarse range step
        # is made to fail on its second call, which is coordinate 1's.
        calls = []
        range_estimator = est1d.range_estimator

        def failing_second(*args, **kwargs):
            calls.append(args)
            if len(calls) == 2:
                raise EstimationFailedError("all histogram buckets were suppressed")
            return range_estimator(*args, **kwargs)

        monkeypatch.setattr(est1d, "range_estimator", failing_second)
        data = PersonMeans(np.full((2048, 2), 0.11), 64)
        params = ProblemParams(k=4.0, alpha=0.25, beta=0.1, range_R=2.0)
        with pytest.raises(EstimationFailedError) as info:
            estimate_pure_full(data, PrivacyBudget(2.0), params, 5)
        assert str(info.value) == (
            "coarse stage, coordinate 1: all histogram buckets were suppressed"
        )
        assert isinstance(info.value.__cause__, EstimationFailedError)
