"""Acceptance suite: one test per criterion A1-A7, each printing a pass/fail
line with its tolerance and elapsed time.  Tolerances are pinned here, not
computed at run time.
"""

import math
import time

import numpy as np
import pytest

from dpmean import esthd_approx, esthd_pure, est1d, tailbounds
from dpmean.clipping import clip_ball, trunc_1d
from dpmean.core import (
    ClipBall,
    EstimationFailedError,
    PersonMeans,
    PrivacyBudget,
    ProblemParams,
    SyntheticSpec,
    derive_rng,
    derive_seed,
    sample_batch_means,
    stable_hash,
)
from dpmean.esthd_pure import comparison_rho, score_candidate
from dpmean.mechanisms import exponential_mechanism, laplace_noise, private_histogram

pytestmark = pytest.mark.acceptance

N_GRID = [2**j for j in range(10, 18)]


def report(criterion, ok, detail, t0, budget_s):
    elapsed = time.perf_counter() - t0
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'}: {detail} ({elapsed:.1f}s)")
    assert ok, f"{criterion}: {detail}"
    assert elapsed <= budget_s, f"{criterion} exceeded its runtime budget ({elapsed:.0f}s)"


def draw(spec, n, m, seed):
    """n people's means of m samples each, from the one sampler."""
    return PersonMeans(sample_batch_means(spec, m, n, seed), m)


def success_curve(run_trial, n_grid, trials, alpha):
    """Walk n upward; return (n_star, errors_at_n_star) for the first n whose
    success rate reaches 90%."""
    for n in n_grid:
        errors = np.array([run_trial(n, t) for t in range(trials)])
        if np.mean(errors <= alpha) >= 0.90:
            return n, errors
    return None, None


class TestA1Univariate:
    def test_a1(self):
        t0 = time.perf_counter()
        spec = SyntheticSpec("scaled_gaussian", mean=(0.3,), k=4.0)
        params = ProblemParams(k=4.0, alpha=0.15, beta=0.1, range_R=2.0)
        budget = PrivacyBudget(1.0, 0.0)

        def run_trial(n, trial):
            seed = derive_seed(0xA1, n, trial)
            data = draw(spec, n, 100, derive_seed(seed, 0))
            rep = est1d.estimate_mean_1d(data, budget, params, derive_seed(seed, 1))
            return abs(rep.estimate[0] - 0.3)

        n_star, errs = success_curve(run_trial, N_GRID, 200, 0.15)
        assert n_star is not None, "no n in the grid reached 90% success"
        errs4 = np.array([run_trial(4 * n_star, t) for t in range(200)])
        rate4 = float(np.mean(errs4 <= 0.15))
        ratio = float(np.median(errs4) / np.median(errs))
        ok = rate4 >= 0.95 and ratio <= 0.6
        report(
            "A1",
            ok,
            f"n*={n_star}, success@4n={rate4:.3f} (>=0.95), median ratio={ratio:.3f} (<=0.6)",
            t0,
            300,
        )


class TestA2TwoRound:
    def test_a2(self):
        t0 = time.perf_counter()
        spec = SyntheticSpec("scaled_gaussian", mean=(0.3, -0.2, 0.1, 0.0), k=4.0)
        params = ProblemParams(k=4.0, alpha=0.4, beta=0.1, range_R=2.0)
        budget = PrivacyBudget(1.0, 1e-6)
        mu = spec.mean_vector()
        rho_ordered = []
        ledgers = []

        def run_trial(n, trial):
            seed = derive_seed(0xA2, n, trial)
            data = draw(spec, n, 100, derive_seed(seed, 0))
            try:
                rep = esthd_approx.estimate_two_round(data, budget, params, derive_seed(seed, 1))
            except EstimationFailedError:
                return math.inf
            rho_ordered.append(rep.params["rho1"] >= rep.params["rho2"])
            ledgers.append((rep.epsilon, rep.delta) == (1.0, 1e-6))
            return float(np.linalg.norm(rep.estimate - mu))

        n_star, errs = success_curve(run_trial, N_GRID, 100, 0.4)
        assert n_star is not None, "no n in the grid reached 90% success"
        errs4 = np.array([run_trial(4 * n_star, t) for t in range(100)])
        rate4 = float(np.mean(errs4 <= 0.4))
        ok = rate4 >= 0.90 and all(rho_ordered) and all(ledgers)
        report(
            "A2",
            ok,
            f"n*={n_star}, success@4n={rate4:.3f}, rho1>=rho2 on {len(rho_ordered)} trials, "
            f"ledger exact on {len(ledgers)} trials",
            t0,
            600,
        )


class TestA3PureDp:
    @pytest.mark.parametrize("d,n", [(1, 2**14), (2, 2**15)])
    def test_a3_fine_estimation(self, d, n):
        t0 = time.perf_counter()
        alpha, beta, m, k = 0.25, 0.1, 64, 4.0
        # mu in the guarantee zone: alpha/9 off a global cover point, inf-norm <= alpha
        if d == 1:
            mu = np.array([-alpha + alpha / 9])
        else:
            mu = np.array([alpha / 9 / math.sqrt(2), -alpha / 9 / math.sqrt(2)])
        spec = SyntheticSpec("scaled_gaussian", mean=tuple(mu), k=k)
        params = ProblemParams(k=k, alpha=alpha, beta=beta, range_R=2.0)
        hits = 0
        for trial in range(50):
            means = sample_batch_means(spec, m, n, derive_seed(0xA3, d, trial))
            est = esthd_pure.fine_est_pure(
                means, m, params, PrivacyBudget(2.0), derive_seed(0xA3F, d, trial)
            )
            hits += np.linalg.norm(est - mu) <= alpha
        ok = hits / 50 >= 0.85
        report(f"A3(d={d})", ok, f"success={hits}/50 (>=85%) at n={n}", t0, 1200)

    def test_a3_score_sensitivity(self):
        t0 = time.perf_counter()
        n, m, alpha, k = 2048, 64, 0.25, 4.0
        spec = SyntheticSpec("scaled_gaussian", mean=(alpha / 9,), k=k)
        base = sample_batch_means(spec, m, n, 0xA35)
        base_score = score_candidate(base, m, np.zeros(1), alpha, 0.1, 7, k=k)
        rng = derive_rng(0xA36)
        violations = 0
        for _ in range(1000):
            means = base.copy()
            means[rng.integers(n)] = rng.normal(loc=rng.uniform(-3, 3), size=(m, 1)).mean(axis=0)
            score = score_candidate(means, m, np.zeros(1), alpha, 0.1, 7, k=k)
            violations += abs(score - base_score) > 1 + 1e-9
        report("A3(sens)", violations == 0, f"{violations} violations over 1000 pairs", t0, 1200)


class TestA4TailDomination:
    @staticmethod
    def family_spec(family, k, d):
        if family == "scaled_gaussian":
            return SyntheticSpec("scaled_gaussian", mean=tuple([0.0] * d), k=k)
        v = list(np.ones(d) / math.sqrt(d))
        return SyntheticSpec("point_mass_mixture", k=k, extra={"alpha": 0.02, "v": v})

    @pytest.mark.parametrize("family", ["scaled_gaussian", "point_mass_mixture"])
    def test_a4_univariate(self, family):
        t0 = time.perf_counter()
        failures = []
        total = 0
        for bound_name in ("heavytail", "berry_esseen"):
            c_cal = tailbounds.FROZEN_CALIBRATION[(family, bound_name)]
            for k in (3.0, 4.0):
                for m in (16, 64, 256):
                    spec = self.family_spec(family, k, 1)
                    grid = tailbounds.acceptance_t_grid(bound_name, m, k, 1)
                    seed = derive_seed(0xA41, stable_hash([family, bound_name, k, m]))
                    for pt in tailbounds.mc_tail(spec, m, grid, 10**6, seed, threads=2):
                        total += 1
                        value, _ = tailbounds.tail_bound(bound_name, m, k, pt.t)
                        if pt.empirical + 3 * pt.std_error > c_cal * value:
                            failures.append((bound_name, k, m, pt.t))
        detail = f"domination at {total - len(failures)}/{total} grid points"
        if failures:
            detail += f"; first failures: {failures[:3]}"
        report(f"A4(1d,{family})", not failures, detail, t0, 900)

    @pytest.mark.parametrize("family", ["scaled_gaussian", "point_mass_mixture"])
    def test_a4_highd(self, family):
        t0 = time.perf_counter()
        failures = []
        total = 0
        c_cal = tailbounds.FROZEN_CALIBRATION[(family, "highd")]
        for k in (3.0, 4.0):
            for m in (16, 64, 256):
                for d in (2, 4):
                    spec = self.family_spec(family, k, d)
                    grid = tailbounds.acceptance_t_grid("highd", m, k, d)
                    seed = derive_seed(0xA42, stable_hash([family, k, m, d]))
                    for pt in tailbounds.mc_tail(spec, m, grid, 10**6, seed, threads=2):
                        total += 1
                        value, _ = tailbounds.tail_bound("highd", m, k, pt.t, d)
                        if pt.empirical + 3 * pt.std_error > c_cal * value:
                            failures.append((k, m, d, pt.t))
        report(
            f"A4(hd,{family})",
            not failures,
            f"domination at {total - len(failures)}/{total} grid points",
            t0,
            900,
        )


class TestA5LemmaSuite:
    def test_a5(self):
        t0 = time.perf_counter()
        pieces = []

        lemma_report = tailbounds.lemma_checks(0xA5)
        pieces.append(("lemma_checks", lemma_report.passed))

        draws = laplace_noise(1.0, seed=0xA51, size=10**6)
        laplace_ok = all(
            float(np.mean(np.abs(draws) >= t)) <= 1.1 * math.exp(-t) for t in (1, 2, 3, 4)
        )
        pieces.append(("laplace_tail", laplace_ok))

        beta = 0.05
        hits = 0
        reps = 2000
        for rep in range(reps):
            seed = derive_seed(0xA52, rep)
            _, counts, _ = private_histogram([], 0.1, 0.9, PrivacyBudget(1.0, 0.0), seed)
            hits += np.abs(counts).max() <= 2.0 * math.log(2 * len(counts) / beta)
        pieces.append(("histogram_linf", hits / reps >= 1 - beta))

        scores = derive_rng(0xA53).uniform(0, 10, size=200)
        opt = scores.max()
        shortfalls = np.array(
            [
                opt
                - scores[
                    exponential_mechanism(
                        ((i, s) for i, s in enumerate(scores)), 1.0, 1.0, derive_seed(0xA54, rep)
                    )
                ]
                for rep in range(10**4)
            ]
        )
        util_ok = all(
            float(np.mean(shortfalls <= 2.0 * (math.log(200) + t))) >= 1 - math.exp(-t)
            for t in (1, 2, 3)
        )
        pieces.append(("exp_mech_utility", util_ok))

        ok = all(flag for _, flag in pieces)
        report("A5", ok, ", ".join(f"{name}={'ok' if f else 'FAIL'}" for name, f in pieces), t0, 300)


class TestA6SensitivityWitnesses:
    def test_a6(self):
        t0 = time.perf_counter()
        # 1-D: moving one person from lower to upper clamp shifts the
        # truncated mean by exactly 2 rho / n
        n, m, rho, center = 64, 4, 0.7, 0.1
        rng = derive_rng(0xA6)
        base = rng.normal(size=(n, m))
        lo, hi = base.copy(), base.copy()
        lo[0] = center - 5 * rho
        hi[0] = center + 5 * rho
        shift_1d = (
            trunc_1d(hi.mean(axis=1), center - rho, center + rho).mean()
            - trunc_1d(lo.mean(axis=1), center - rho, center + rho).mean()
        )
        exact_1d = math.isclose(shift_1d, 2 * rho / n, rel_tol=1e-12)

        # d-D: antipodal clipped points achieve 2 rho / n in L2
        d = 3
        ball = ClipBall(np.zeros(d), rho)
        base_d = rng.normal(size=(n, m, d))
        lo_d, hi_d = base_d.copy(), base_d.copy()
        direction = np.array([1.0, 0.0, 0.0])
        lo_d[0] = -5 * rho * direction
        hi_d[0] = 5 * rho * direction
        shift_dd = np.linalg.norm(
            clip_ball(hi_d.mean(axis=1), ball).mean(axis=0)
            - clip_ball(lo_d.mean(axis=1), ball).mean(axis=0)
        )
        exact_dd = math.isclose(shift_dd, 2 * rho / n, rel_tol=1e-12)

        # 1e4 random neighbors never exceed 2 rho / n
        base_clipped = clip_ball(base_d.mean(axis=1), ball).mean(axis=0)
        exceeded = 0
        for _ in range(10**4):
            neighbor = base_d.copy()
            neighbor[rng.integers(n)] = rng.normal(scale=4, size=(m, d))
            avg = clip_ball(neighbor.mean(axis=1), ball).mean(axis=0)
            exceeded += np.linalg.norm(avg - base_clipped) > 2 * rho / n + 1e-12
        ok = exact_1d and exact_dd and exceeded == 0
        report(
            "A6",
            ok,
            f"1d witness exact={exact_1d}, dD witness exact={exact_dd}, "
            f"0 of 10^4 random neighbors exceeded (got {exceeded})",
            t0,
            60,
        )


class TestA7TruncationBiasCases:
    def test_a7(self):
        t0 = time.perf_counter()
        m, k, alpha = 64, 4.0, 0.25
        rho = comparison_rho(m, k, alpha)
        spec = SyntheticSpec("scaled_gaussian", mean=(0.0,), k=k)
        trials = 10**6
        failures = []

        def check_interval(case, i, x0, lo, hi):
            means = sample_batch_means(spec, m, trials, derive_seed(0xA7, case, i))[:, 0]
            z = trunc_1d(means, x0 - rho, x0 + rho)
            # fsum is exactly rounded: when every draw is clamped E[Z] is the
            # endpoint itself and se ~ 1e-18, below the error of a pairwise sum
            ez = math.fsum(z) / trials
            se = float(z.std(ddof=1)) / math.sqrt(trials)
            slack = 3 * se + 4 * math.ulp(max(abs(lo), abs(hi)))  # floor: the division rounds
            if not lo - slack <= ez <= hi + slack:
                failures.append(
                    f"case {case} x0={x0 / rho:.2f}rho: E[Z]={ez!r} "
                    f"not in [{lo!r}, {hi!r}] +- {slack:.2g}"
                )

        # case 1: rho/2 < |x0 - mu| <= 17 rho/16  =>  E[Z] in [mu - rho/8, mu + rho/8]
        for i, frac in enumerate((0.55, 0.85, 1.05)):
            check_interval(1, i, frac * rho, -rho / 8, rho / 8)
        # case 2: x0 - mu > 17 rho/16  =>  E[Z] in [x0 - rho, x0 - 15 rho/16]
        for i, frac in enumerate((1.1, 1.5, 3.0)):
            x0 = frac * rho
            check_interval(2, i, x0, x0 - rho, x0 - 15 * rho / 16)
        detail = f"{6 - len(failures)}/6 interval cases hold at 3 sigma"
        if failures:
            detail += f"; failures: {failures}"
        report("A7", not failures, detail, t0, 120)
