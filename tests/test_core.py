import importlib
import json
import math
import pkgutil
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

import dpmean
from dpmean import core
from dpmean.core import (
    ClipBall,
    ConfigurationError,
    ParameterError,
    PersonDataset,
    PersonMeans,
    PrivacyBudget,
    ProblemParams,
    SyntheticSpec,
    derive_rng,
    derive_seed,
    gaussian_abs_moment,
    sample_batch_means,
    student_t_abs_moment,
)


def gaussian_spec(mean=(0.0,), k=4.0):
    return SyntheticSpec("scaled_gaussian", mean=mean, k=k)


class TestTypes:
    def test_dataset_shape_and_props(self):
        data = PersonDataset(np.zeros((3, 2, 4)))
        assert data.values.shape == (3, 2, 4)
        means = data.person_means()
        assert (means.means.shape, means.m) == ((3, 4), 2)

    def test_dataset_univariate_convenience(self):
        data = PersonDataset(np.ones((5, 2)))
        assert data.values.shape == (5, 2, 1)

    def test_dataset_rejects_nan(self):
        bad = np.zeros((2, 2, 1))
        bad[0, 0, 0] = np.nan
        with pytest.raises(ParameterError):
            PersonDataset(bad)

    def test_dataset_rejects_empty(self):
        with pytest.raises(ParameterError):
            PersonDataset(np.zeros((0, 2, 1)))

    def test_person_means(self):
        vals = np.arange(12, dtype=float).reshape(2, 3, 2)
        means = PersonDataset(vals).person_means()
        assert isinstance(means, PersonMeans) and means.m == 3
        np.testing.assert_array_equal(means.means, vals.mean(axis=1))

    def test_person_means_validation(self):
        for shape in [(4,), (0, 2), (3, 0), (2, 2, 1)]:
            with pytest.raises(ParameterError, match="shape|means"):
                PersonMeans(np.zeros(shape), 4)
        with pytest.raises(ParameterError):
            PersonMeans(np.zeros((3, 2)), 0)
        for bad in (np.nan, np.inf, -np.inf):
            means = np.zeros((3, 2))
            means[1, 0] = bad
            with pytest.raises(ParameterError, match="person 1 has a non-finite mean"):
                PersonMeans(means, 4)

    def test_person_means_read_only_copy(self):
        source = np.zeros((3, 2))
        means = PersonMeans(source, 4)
        source[0, 0] = 1.0
        assert means.means[0, 0] == 0.0
        assert means.means.dtype == np.float64
        with pytest.raises(ValueError):
            means.means[0, 0] = 2.0

    def test_overflowing_person_mean_rejected(self):
        # every sample is finite, but person 2's average of 64 overflows
        values = np.zeros((3, 64, 2))
        values[2] = 1.7e308
        data = PersonDataset(values)
        with pytest.raises(ParameterError, match="person 2 has a non-finite mean.*overflow"):
            data.person_means()

    def test_budget_validation(self):
        assert PrivacyBudget(1.0).is_pure
        assert not PrivacyBudget(1.0, 1e-6).is_pure
        with pytest.raises(ParameterError):
            PrivacyBudget(0.0)
        with pytest.raises(ParameterError):
            PrivacyBudget(1.0, 1.0)

    def test_problem_params_validation(self):
        ProblemParams(k=3.0, alpha=0.1, beta=0.1, range_R=2.0)
        with pytest.raises(ParameterError):
            ProblemParams(k=2.0, alpha=0.1, beta=0.1, range_R=2.0)

    def test_clip_ball_validation(self):
        ball = ClipBall(np.zeros(3), 1.0)
        assert ball.d == 3
        with pytest.raises(ParameterError):
            ClipBall(np.zeros(2), -1.0)


class TestStrictFields:
    def test_strict_float_takes_numbers(self):
        assert core.strict_float(2) == 2.0 and type(core.strict_float(2)) is float
        assert core.strict_float(0.15) == 0.15

    @pytest.mark.parametrize("value", [True, False, "0.15", "4", None, [1.0]])
    def test_strict_float_rejects_the_rest(self, value):
        with pytest.raises(ValueError, match="expected a number"):
            core.strict_float(value)


class TestRng:
    def test_derive_rng_reproducible(self):
        a = derive_rng(7, 1, 2).standard_normal(4)
        b = derive_rng(7, 1, 2).standard_normal(4)
        np.testing.assert_array_equal(a, b)

    def test_derive_rng_paths_differ(self):
        a = derive_rng(7, 1).standard_normal(4)
        b = derive_rng(7, 2).standard_normal(4)
        assert not np.array_equal(a, b)

    def test_derive_seed_stable(self):
        assert derive_seed(7, 3) == derive_seed(7, 3)
        assert derive_seed(7, 3) != derive_seed(7, 4)

    def test_seed_range_enforced(self):
        with pytest.raises(ParameterError):
            derive_rng(-1)


class TestMomentConstants:
    def test_gaussian_even_moments_exact(self):
        # E|N|^2 = 1, E|N|^4 = 3, E|N|^6 = 15
        assert math.isclose(gaussian_abs_moment(2), 1.0, rel_tol=1e-12)
        assert math.isclose(gaussian_abs_moment(4), 3.0, rel_tol=1e-12)
        assert math.isclose(gaussian_abs_moment(6), 15.0, rel_tol=1e-12)

    def test_student_t_even_moment_closed_form(self):
        # E T_5^4 = 3 nu^2 / ((nu-2)(nu-4)) = 25 at nu = 5
        assert math.isclose(student_t_abs_moment(4, 5), 25.0, rel_tol=1e-9)

    def test_student_t_moment_needs_df(self):
        with pytest.raises(ConfigurationError):
            student_t_abs_moment(4, 4)


class TestSyntheticSpec:
    def test_point_mass_lambda_above_one_rejected(self):
        # alpha=0.2, k=3: lambda = 25 * 0.2^1.5 = 2.236 > 1
        with pytest.raises(ConfigurationError):
            SyntheticSpec("point_mass_mixture", k=3.0, extra={"alpha": 0.2, "v": [1.0]})

    def test_point_mass_params_closed_form(self):
        # alpha=0.02, k=3: lambda = 0.070711, atom = 1.178511, mean = (25/6)*0.02
        spec = SyntheticSpec("point_mass_mixture", k=3.0, extra={"alpha": 0.02, "v": [1.0]})
        lam, atom, _ = spec._pm_params()
        assert math.isclose(lam, 0.07071067811865475, rel_tol=1e-12)
        assert math.isclose(atom, 1.1785113019775793, rel_tol=1e-12)
        assert math.isclose(spec.mean_vector()[0], 25 / 6 * 0.02, rel_tol=1e-12)

    def test_point_mass_monte_carlo_mean(self):
        spec = SyntheticSpec("point_mass_mixture", k=3.0, extra={"alpha": 0.02, "v": [1.0]})
        draws = spec.sample(derive_rng(3), 10**6)[:, 0]
        # 3 sigma tolerance around the closed-form mean
        se = draws.std(ddof=1) / 1000
        assert abs(draws.mean() - 25 / 6 * 0.02) < 3 * se

    def test_student_t_needs_enough_df(self):
        with pytest.raises(ConfigurationError):
            SyntheticSpec("student_t", k=3.0, extra={"df": 3.0})

    @pytest.mark.parametrize("df", [float("nan"), float("inf"), "10", True, None])
    def test_student_t_df_must_be_a_finite_number(self, df):
        # NaN fails ``df <= k`` and inf is above any k, yet both drew NaN means
        with pytest.raises(ConfigurationError, match="student_t df"):
            SyntheticSpec("student_t", k=4.0, extra={"df": df})

    def test_unknown_family(self):
        with pytest.raises(ConfigurationError):
            SyntheticSpec("cauchy")

    def test_mean_override_translates(self):
        spec = SyntheticSpec(
            "point_mass_mixture", mean=(0.0,), k=3.0, extra={"alpha": 0.02, "v": [1.0]}
        )
        draws = spec.sample(derive_rng(11), 200_000)[:, 0]
        assert abs(draws.mean()) < 5e-3

    @pytest.mark.parametrize("k", [True, "4"])
    def test_from_json_rejects_non_number_k(self, k):
        text = '{"family": "scaled_gaussian", "mean": [0.0], "k": %s}' % json.dumps(k)
        with pytest.raises(ConfigurationError, match="malformed spec JSON"):
            SyntheticSpec.from_json(text)

    def test_json_round_trip(self):
        spec = SyntheticSpec(
            "point_mass_mixture", mean=(0.1, 0.2), k=3.5, extra={"alpha": 0.01, "v": [0.6, 0.8]}
        )
        again = SyntheticSpec.from_json(spec.to_json())
        assert again == spec
        assert set(spec.to_json()) and all(
            key in spec.to_json() for key in ("family", "mean", "k", "extra")
        )


class TestSampling:
    def test_batch_means_shape_and_determinism(self):
        spec = gaussian_spec()
        a = sample_batch_means(spec, 3, 2, 7)
        b = sample_batch_means(spec, 3, 2, 7)
        assert a.shape == (2, 1)
        assert np.isfinite(a).all()
        np.testing.assert_array_equal(a, b)

    def test_batch_means_rejects_bad_counts(self):
        with pytest.raises(ParameterError):
            sample_batch_means(gaussian_spec(), 3, 0, 7)
        with pytest.raises(ParameterError):
            sample_batch_means(gaussian_spec(), 0, 2, 7)
        with pytest.raises(ParameterError, match="threads must be >= 1"):
            sample_batch_means(gaussian_spec(), 3, 2, 7, threads=0)

    def test_batch_means_match_dataset_means_statistically(self):
        spec = gaussian_spec(k=3.0)
        means = sample_batch_means(spec, 16, 200_000, 5)[:, 0]
        assert abs(means.mean()) < 3e-3
        sigma_k = gaussian_abs_moment(3.0) ** (1 / 3.0)
        assert math.isclose(means.std(ddof=1), 1 / (sigma_k * 4), rel_tol=0.02)

    def test_batch_means_chunking_invariant(self, monkeypatch):
        monkeypatch.setattr(core, "BATCH_CHUNK", 64)
        spec = gaussian_spec()
        a = sample_batch_means(spec, 4, 1000, 9)
        b = sample_batch_means(spec, 4, 1000, 9)
        np.testing.assert_array_equal(a, b)


    @pytest.mark.parametrize(
        "spec,block,m",
        [
            (gaussian_spec(mean=(0.3,)), None, 16),
            (gaussian_spec(mean=(0.3, -1.7)), None, 16),  # the pure_dp sweep's d
            (gaussian_spec(mean=(0.3, -1.7, 2.5, 0.0), k=3.0), None, 16),
            (gaussian_spec(mean=tuple(0.1 * i for i in range(10))), None, 1),  # 3 chunks
            # 5 rows a block: a 256-row chunk is 51 blocks and then a 1-row block
            (gaussian_spec(mean=(0.3,)), 80, 16),
            # m * d = 128 exceeds the block: one row a block
            (gaussian_spec(mean=tuple(0.1 * i for i in range(8))), 64, 16),
            # 4 rows a block: an 85-row chunk is 21 blocks and then a 1-row
            # block, which fills half of the 2-row slab scratch
            (gaussian_spec(mean=(0.1, -0.2, 0.3)), 192, 16),
        ],
        ids=["gaussian_d1", "gaussian_d2", "gaussian_d4", "gaussian_m1",
             "gaussian_1_row_tail_block", "gaussian_row_per_block",
             "gaussian_d3_1_row_tail_block"],
    )
    def test_batch_means_keep_draw_then_average_bits(self, monkeypatch, spec, block, m):
        # The reference draws out of place, then averages, chunk by chunk.
        # Gaussian blocks continue one stream, so it draws a chunk at once.
        monkeypatch.setattr(core, "BATCH_CHUNK", 4096)
        if block is not None:
            monkeypatch.setattr(core, "SAMPLE_BLOCK", block)
        trials, seed, d = 1000, 41, spec.dim
        per_chunk = 4096 // (m * d)
        rows = max(1, core.SAMPLE_BLOCK // (m * d))
        if block is not None:
            assert per_chunk // rows > 1  # a chunk spans several blocks
            assert rows == 1 or per_chunk % rows == 1  # and ends in a 1-row block
        sigma_k = gaussian_abs_moment(spec.k) ** (1.0 / spec.k)
        parts = []
        for chunk_index, start in enumerate(range(0, trials, per_chunk)):
            size = (min(trials, start + per_chunk) - start) * m
            x = derive_rng(seed, chunk_index).standard_normal((size, d)) / sigma_k
            parts.append((x + spec.mean_vector()).reshape(-1, m, d).mean(axis=1))
        assert len(parts) > 2
        got = sample_batch_means(spec, m, trials, seed)
        assert got.tobytes() == np.concatenate(parts).tobytes()

    @pytest.mark.parametrize(
        "mean,block",
        [
            # 4 rows a block: an 85-row chunk is 21 blocks and then a 1-row block
            ((0.1, -0.2, 0.3), 64),
            # the approx sweep's d; one block a chunk
            (tuple(0.1 * i for i in range(8)), None),
        ],
        ids=["d3_1_row_tail_block", "d8"],
    )
    def test_student_t_means_keep_reference_bits(self, monkeypatch, mean, block):
        # The reference writes the exact law out by hand, block by block:
        # a block's rows * m chi-squares, then its rows * d normals, each
        # row scaled by sqrt(sum_j df / W_j) / (m * sigma_k).
        monkeypatch.setattr(core, "BATCH_CHUNK", 4096)
        if block is not None:
            monkeypatch.setattr(core, "SAMPLE_BLOCK", block)
        spec = SyntheticSpec("student_t", mean=mean, k=4.0, extra={"df": 10.0})
        trials, seed, m, d, df = 1000, 41, 16, spec.dim, 10.0
        per_chunk = 4096 // (m * d)
        rows = min(per_chunk, core.SAMPLE_BLOCK // m)
        if block is not None:
            assert per_chunk // rows > 1 and per_chunk % rows == 1
        scale = 1.0 / (m * student_t_abs_moment(spec.k, df) ** (1.0 / spec.k))
        parts = []
        for chunk_index, start in enumerate(range(0, trials, per_chunk)):
            rng = derive_rng(seed, chunk_index)
            stop = min(trials, start + per_chunk)
            for lo in range(start, stop, rows):
                w = rng.chisquare(df, (min(stop, lo + rows) - lo, m))
                z = rng.standard_normal((len(w), d))
                parts.append(z * (np.sqrt((df / w).sum(axis=1)) * scale)[:, None]
                             + spec.mean_vector())
        assert len(parts) > 2
        got = sample_batch_means(spec, m, trials, seed)
        assert got.tobytes() == np.concatenate(parts).tobytes()

    def test_student_t_means_follow_exact_law(self):
        # E|mean - mu|^2 = d c^2 df / ((df - 2) m), with c = 1 / sigma_k the
        # sample scale, within 4 se; the two-sample KS distance to averages
        # of m ``sample`` draws, on a coordinate and on the norm, at the
        # 0.1% critical value.  Seeds fixed before the first run.  A 1%
        # scale error moves the first check by about 11 se, and mixing with
        # m^2 df / sum_j W_j instead of sum_j df / W_j by about 260 se.
        spec = SyntheticSpec("student_t", mean=(0.1, -0.2, 0.3), k=4.0, extra={"df": 6.0})
        n, m, d, df = 400_000, 4, 3, 6.0
        dev = sample_batch_means(spec, m, n, 43) - spec.mean_vector()
        r2 = (dev**2).sum(axis=1)
        exact = d * df / ((df - 2) * m) * student_t_abs_moment(spec.k, df) ** (-2.0 / spec.k)
        se = r2.std(ddof=1) / math.sqrt(n)
        assert abs(r2.mean() - exact) <= 4 * se, (r2.mean(), exact, se)
        ref = spec.sample(derive_rng(44), n * m).reshape(n, m, d).mean(axis=1)
        ref -= spec.mean_vector()
        critical = math.sqrt(-math.log(0.001 / 2) / 2) * math.sqrt(2 / n)
        assert ks_distance(dev[:, 0], ref[:, 0]) <= critical
        assert ks_distance(np.sqrt(r2), np.linalg.norm(ref, axis=1)) <= critical

    @pytest.mark.parametrize("d", [1, 2, 4])
    @pytest.mark.parametrize("m", [1, 9, 25, 309])
    def test_mean_over_samples_keeps_numpy_bits(self, m, d):
        # 300 people span several scratch passes at every m * d > 109, and
        # person 0's samples are all -0.0, whose numpy mean is +0.0.
        rng = np.random.default_rng(m * 10 + d)
        x = rng.standard_normal((300, m, d)) * rng.uniform(1e-3, 1e3, (300, 1, 1)) + 0.7
        x[0] = -0.0
        want = x.mean(axis=1).tobytes()
        assert core._mean_over_samples(x).tobytes() == want
        out = np.full((300, d), np.nan)
        core._mean_over_samples(x, out, np.empty(7 * m * d))  # 7 people a pass
        assert out.tobytes() == want

    @pytest.mark.parametrize(
        "spec",
        [
            gaussian_spec(mean=(0.3, -1.7)),
            SyntheticSpec("student_t", mean=(0.1, 0.2, 0.3), k=4.0, extra={"df": 10.0}),
            SyntheticSpec("point_mass_mixture", k=4.0, extra={"alpha": 0.02, "v": [0.6, 0.8]}),
        ],
        ids=["gaussian", "student_t", "point_mass_mixture"],
    )
    def test_batch_means_bits_do_not_depend_on_threads(self, monkeypatch, spec):
        monkeypatch.setattr(core, "BATCH_CHUNK", 512)
        m, trials = 8, 1000  # 512 // (8 * d) means a chunk: 16 to 63 chunks
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = [sample_batch_means(spec, m, trials, 17, threads=t).tobytes()
                   for t in (1, 2, 3, 8)]
        finally:
            sys.setswitchinterval(interval)
        assert got[0] == got[1] == got[2] == got[3]

    def test_batch_means_failure_on_a_worker_propagates(self, monkeypatch):
        monkeypatch.setattr(core, "BATCH_CHUNK", 512)
        calls = []

        def failing(self, rng, n, m):
            calls.append(n)
            time.sleep(0.01)  # lets the caller see the failure while chunks remain
            raise ParameterError("bad chunk")

        monkeypatch.setattr(SyntheticSpec, "sample_means", failing)
        with pytest.raises(ParameterError, match="bad chunk"):
            sample_batch_means(gaussian_spec(), 8, 10_000, 3, threads=2)
        assert len(calls) < 157 // 2  # of 157 chunks of 64 means

    def test_batch_caller_draws_beside_one_helper(self, monkeypatch, thread_starts):
        # the caller is one of the two workers, so one helper is started;
        # each chunk sleeps, so a pool whose caller only waited would start two
        monkeypatch.setattr(core, "BATCH_CHUNK", 512)
        sample_means = SyntheticSpec.sample_means
        workers = set()

        def slow(self, rng, n, m):
            workers.add(threading.get_ident())
            time.sleep(0.01)
            return sample_means(self, rng, n, m)

        monkeypatch.setattr(SyntheticSpec, "sample_means", slow)
        serial = sample_batch_means(gaussian_spec(), 8, 256, 3)  # 4 chunks of 64 means
        assert thread_starts == []
        pooled = sample_batch_means(gaussian_spec(), 8, 256, 3, threads=2)
        assert len(thread_starts) == 1 and not thread_starts[0].is_alive()
        assert threading.get_ident() in workers
        assert pooled.tobytes() == serial.tobytes()

    def test_pool_interrupt_in_the_caller_joins_the_helpers(self, thread_starts):
        caller = threading.get_ident()
        done = []

        def task(i):
            if threading.get_ident() == caller:
                raise KeyboardInterrupt
            time.sleep(0.001)
            done.append(i)

        with pytest.raises(KeyboardInterrupt):
            core._run_on_workers(1000, 3, task)
        assert len(thread_starts) == 2
        assert not any(t.is_alive() for t in thread_starts)
        assert len(done) < 100  # the helpers stopped taking tasks

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("family", ["scaled_gaussian", "student_t"])
    def test_batch_memory_is_bounded_by_blocks(self, family, threads):
        # numpy reports its buffers to tracemalloc.  Besides the output, each
        # worker holds one chunk of means and at most two blocks of samples,
        # never the chunk's BATCH_CHUNK samples (32 MiB).  A student_t block
        # holds no samples: its rows * m chi-squares (about SAMPLE_BLOCK),
        # divided in place, and one mixing scale per row.
        m, trials, d = 64, 100_000, 4
        extra = {"df": 10.0} if family == "student_t" else {}
        spec = SyntheticSpec(family, mean=(0.0,) * d, k=4.0, extra=extra)
        per_chunk = core.BATCH_CHUNK // (m * d)
        per_block = 2 * core.SAMPLE_BLOCK
        # a first call starts the threads and loads what they import
        sample_batch_means(spec, m, 2 * per_chunk, 5, threads)
        tracemalloc.start()
        try:
            out = sample_batch_means(spec, m, trials, 7, threads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bound = out.nbytes + threads * 8 * (per_chunk * d + per_block)
        assert peak <= bound, (peak / 2**20, bound / 2**20)

    @pytest.mark.parametrize("m,d", [(16, 1), (64, 4)])
    def test_point_mass_means_follow_exact_law(self, m, d):
        v = np.ones(d) / math.sqrt(d)
        spec = SyntheticSpec("point_mass_mixture", k=4.0, extra={"alpha": 0.02, "v": list(v)})
        lam, atom, _ = spec._pm_params()
        trials = 2 * (core.BATCH_CHUNK // (m * d)) + 1000  # three chunks
        means = sample_batch_means(spec, m, trials, 31)
        # every mean is shift + atom * v * b / m for an integer b
        shift = spec.mean_vector() - lam * atom * v
        b_real = (means - shift) @ v * m / atom
        b = np.rint(b_real)
        assert np.abs(b_real - b).max() <= 1e-12
        assert np.abs(means - shift - (b / m)[:, None] * (atom * v)).max() <= 1e-12
        # b ~ Binomial(m, lambda): chi-square goodness of fit, with the bins
        # (adjacent counts merged until each expects >= 5) and the p-value
        # threshold 1e-3 fixed by the law alone
        expected = trials * np.array(
            [math.comb(m, j) * lam**j * (1 - lam) ** (m - j) for j in range(m + 1)]
        )
        starts = chi_square_bins(expected)
        observed = np.bincount(b.astype(np.int64), minlength=m + 1)
        assert observed.size == m + 1 and b.min() >= 0
        exp_bins = np.add.reduceat(expected, starts)
        obs_bins = np.add.reduceat(observed, starts)
        assert exp_bins.min() >= 5 and len(starts) >= 5
        stat = float(((obs_bins - exp_bins) ** 2 / exp_bins).sum())
        assert chi_square_sf(stat, len(starts) - 1) >= 1e-3, stat


def ks_distance(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov distance: the largest gap between the
    empirical CDFs of ``a`` and ``b``."""
    a, b = np.sort(a), np.sort(b)
    at = np.concatenate([a, b])
    gap = np.searchsorted(a, at, "right") / a.size - np.searchsorted(b, at, "right") / b.size
    return float(np.abs(gap).max())


def chi_square_bins(expected) -> list:
    """Start index of each bin: adjacent cells merged until the bin expects at
    least 5 counts; a short remainder joins the last bin."""
    starts, acc = [0], 0.0
    for j, e in enumerate(expected[:-1]):
        acc += e
        if acc >= 5:
            starts.append(j + 1)
            acc = 0.0
    if acc + expected[-1] < 5:
        starts.pop()
    return starts


def chi_square_sf(x: float, df: int) -> float:
    """P[chi^2_df >= x], from the power series of the lower regularised gamma
    function P(df/2, x/2)."""
    a, y = df / 2, x / 2
    term = total = 1.0 / a
    n = 0
    while term > 1e-17 * total:
        n += 1
        term *= y / (a + n)
        total += term
    return 1.0 - math.exp(a * math.log(y) - y - math.lgamma(a)) * total


# Moment-normalisation check of the synthetic generators, and the fixed
# directions it takes the supremum over.
def direction_grid(d: int) -> np.ndarray:
    """Fixed deterministic unit directions used to approximate sup over the sphere.

    d=1: the single direction.  d>1: coordinate axes plus 64 quasi-uniform
    directions (equal angles for d=2, Fibonacci sphere for d=3, seeded
    normalized Gaussians for d >= 4).
    """
    if d < 1:
        raise ParameterError("d must be >= 1")
    if d == 1:
        return np.ones((1, 1))
    axes = np.eye(d)
    if d == 2:
        theta = np.linspace(0.0, np.pi, 64, endpoint=False)
        extra = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    elif d == 3:
        i = np.arange(64, dtype=np.float64)
        golden = (1 + math.sqrt(5)) / 2
        z = 1 - 2 * (i + 0.5) / 64
        r = np.sqrt(np.clip(1 - z * z, 0, None))
        phi = 2 * np.pi * i / golden
        extra = np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)
    else:
        g = derive_rng(0x5D1CE5, d).standard_normal((64, d))
        extra = g / np.linalg.norm(g, axis=1, keepdims=True)
    return np.concatenate([axes, extra], axis=0)


def check_moment(spec: SyntheticSpec, k: float, trials: int, seed: int) -> float:
    """Monte Carlo estimate of sup_v E[|<X - mu, v>|^k]^{1/k} over the direction grid.

    Noisy by construction; callers interpret.  Requires trials >= 1e4.
    """
    if trials < 10_000:
        raise ParameterError(f"need trials >= 1e4, got {trials}")
    dirs = direction_grid(spec.dim)
    mu = spec.mean_vector()
    acc = np.zeros(dirs.shape[0])
    per_chunk = max(1, (1 << 22) // spec.dim)
    done = 0
    chunk_index = 0
    while done < trials:
        take = min(per_chunk, trials - done)
        rng = derive_rng(seed, chunk_index)
        x = spec.sample(rng, take) - mu
        acc += np.abs(x @ dirs.T).__pow__(k).sum(axis=0)
        done += take
        chunk_index += 1
    return float(np.max(acc / trials) ** (1.0 / k))


class TestCheckMoment:
    def test_gaussian_k2_normalized(self):
        spec = SyntheticSpec("scaled_gaussian", mean=(0.0,), k=2.0)
        est = check_moment(spec, 2.0, 200_000, 3)
        assert abs(est - 1.0) < 0.02

    def test_point_mass_within_one(self):
        spec = SyntheticSpec("point_mass_mixture", k=3.0, extra={"alpha": 0.02, "v": [1.0]})
        assert check_moment(spec, 3.0, 200_000, 3) <= 1.0

    def test_degenerate_point_mass_zero(self):
        # a point-mass with tiny lambda and mean pinned at the natural mean
        # still deviates; the degenerate case is a zero-variance gaussian-like
        # check via atom weight ~ all mass at mu: use alpha tiny so the atom
        # is essentially never drawn, giving deviations ~ 0 around mean 0.
        spec = SyntheticSpec(
            "point_mass_mixture", mean=None, k=3.0, extra={"alpha": 1e-9, "v": [1.0]}
        )
        est = check_moment(spec, 3.0, 50_000, 3)
        assert est < 0.05

    def test_trials_floor(self):
        with pytest.raises(ParameterError):
            check_moment(gaussian_spec(), 4.0, 100, 3)

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "spec",
        [
            SyntheticSpec("scaled_gaussian", mean=(0.0,), k=4.0),
            SyntheticSpec("scaled_gaussian", mean=(0.1, -0.2, 0.3), k=3.0),
            SyntheticSpec("point_mass_mixture", k=3.0, extra={"alpha": 0.02, "v": [1.0]}),
            SyntheticSpec(
                "point_mass_mixture", k=4.0, extra={"alpha": 0.02, "v": [0.6, 0.0, 0.8]}
            ),
            SyntheticSpec("student_t", mean=(0.0,), k=4.0, extra={"df": 9.0}),
            SyntheticSpec("student_t", mean=(0.0, 0.0), k=3.0, extra={"df": 7.0}),
        ],
    )
    def test_moment_compliance_all_families(self, spec):
        # every generator passes sigma_k <= 1 + 0.1 MC slack at 1e6 trials
        assert check_moment(spec, spec.k, 10**6, 17) <= 1.1


class TestBatchMomentScaling:
    @pytest.mark.parametrize("m", [4, 16, 64])
    def test_average_moment_shrinks_like_sqrt_m(self, m):
        # k-th moment of the m-average <= C_k / sqrt(m) with C_k <= 4
        spec = gaussian_spec(k=4.0)
        means = sample_batch_means(spec, m, 300_000, 23)[:, 0]
        emp = float(np.mean(np.abs(means) ** 4) ** 0.25)
        assert emp <= 4 / math.sqrt(m) * 1.05


class TestDirectionGrid:
    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_unit_norm_and_determinism(self, d):
        grid = direction_grid(d)
        np.testing.assert_allclose(np.linalg.norm(grid, axis=1), 1.0, atol=1e-12)
        np.testing.assert_array_equal(grid, direction_grid(d))
        if d > 1:
            assert grid.shape[0] == d + 64


def test_every_export_resolves():
    names = [info.name for info in pkgutil.iter_modules(dpmean.__path__)]
    modules = [dpmean] + [importlib.import_module(f"dpmean.{name}") for name in names]
    for module in modules:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names missing attributes {missing}"
