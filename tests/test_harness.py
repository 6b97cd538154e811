import csv
import inspect
import json
import math
import sys
import threading
import time

import numpy as np
import pytest

from dpmean import est1d, esthd_approx, esthd_pure, harness
from dpmean.core import (
    ConfigurationError,
    ParameterError,
    PersonDataset,
    PersonMeans,
    PrivacyBudget,
    ProblemParams,
    SyntheticSpec,
)
from dpmean.harness import (
    CSV_SCHEMA_VERSION,
    ExperimentConfig,
    TailbenchConfig,
    TrialRow,
    run_experiment,
    run_tailbench,
)

SPEC1 = SyntheticSpec("scaled_gaussian", mean=(0.3,), k=4.0)


def one_point_config(tmp_path, trials=1, name="out.csv", estimator="est1d", **overrides):
    kwargs = dict(
        estimator=estimator,
        spec=SPEC1,
        n=[256],
        m=[100],
        epsilon=[1.0],
        delta=[0.0],
        alpha=[0.15],
        k=[4.0],
        trials=trials,
        seed=99,
        output_path=str(tmp_path / name),
    )
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# estimator -> (dimension, delta) of an instance it accepts
REGISTRY_CASES = {
    "est1d": (1, 0.0),
    "hd_single": (2, 1e-6),
    "hd_two_round": (2, 1e-6),
    "pure_dp": (2, 0.0),
}


class TestRegistry:
    @pytest.mark.parametrize("name", sorted(harness.ESTIMATORS))
    def test_means_computed_once_and_no_dataset_copies(self, name, tmp_path, monkeypatch):
        # a sweep trial draws its per-person means once, in bounded chunks,
        # and never builds the (n, m, d) sample tensor
        d, delta = REGISTRY_CASES[name]
        spec = SyntheticSpec("scaled_gaussian", mean=(0.3,) * d, k=4.0)
        calls = {"sample_batch_means": 0, "PersonDataset": 0}

        def counted_sample(*args, _original=harness.sample_batch_means, **kwargs):
            calls["sample_batch_means"] += 1
            return _original(*args, **kwargs)

        def counted_dataset(self, _original=PersonDataset.__post_init__):
            calls["PersonDataset"] += 1
            return _original(self)

        monkeypatch.setattr(harness, "sample_batch_means", counted_sample)
        monkeypatch.setattr(PersonDataset, "__post_init__", counted_dataset)
        cfg = one_point_config(
            tmp_path, estimator=name, spec=spec, n=[900], m=[25], epsilon=[2.0],
            delta=[delta], alpha=[0.5],
        )
        run_experiment(cfg)
        assert calls == {"sample_batch_means": 1, "PersonDataset": 0}
        trial = read_rows(cfg.output_path)[0]
        assert trial["row_type"] == "trial" and float(trial["l2_error"]) < float("inf")

    @pytest.mark.parametrize("name", sorted(harness.ESTIMATORS))
    def test_overflowing_person_mean_never_reaches_estimator(self, name):
        # every sample is finite, but person 5's average of 64 overflows to inf
        d, delta = REGISTRY_CASES[name]
        values = np.random.default_rng(3).normal(0.3, 1.0, size=(3000, 64, d))
        values[5] = 1.7e308
        params = ProblemParams(k=4.0, alpha=0.5, beta=0.1, range_R=2.0)
        with pytest.raises(ParameterError, match="person 5 has a non-finite mean"):
            harness.ESTIMATORS[name](
                PersonDataset(values).person_means(), PrivacyBudget(2.0, delta), params, 7
            )

    @pytest.mark.parametrize("field", ["k", "alpha", "range_R", "epsilon"])
    @pytest.mark.parametrize("name", sorted(harness.ESTIMATORS))
    def test_non_finite_parameter_rejected(self, name, field):
        # inf passes every "> 0" check; unchecked, pure_dp stops on an empty
        # cover at alpha = inf and hd_single releases an estimate at k = inf
        d, delta = REGISTRY_CASES[name]
        data = PersonMeans(np.random.default_rng(3).normal(0.3, 0.1, size=(3000, d)), 64)
        values = {"k": 4.0, "alpha": 0.5, "beta": 0.1, "range_R": 2.0, "epsilon": 2.0}
        values[field] = math.inf
        with pytest.raises(ParameterError, match=f"{field} must be finite"):
            budget = PrivacyBudget(values.pop("epsilon"), delta)
            harness.ESTIMATORS[name](data, budget, ProblemParams(**values), 7)


class TestStageBudgets:
    """Every budget a stage runs on reaches the report.  The stage functions
    are wrapped to record the budget each call gets; est1d's two stages also
    run pure_dp's coarse pass, one pair per coordinate, and pure_dp's fine
    phase runs on disjoint people, a ledger group of its own."""

    STAGES = [
        (est1d, "range_estimator"),
        (est1d, "fine_estimate_1d"),
        (esthd_approx, "coarse_estimate_hd"),
        (esthd_approx, "clip_and_noise"),
        (esthd_pure, "fine_est_pure"),
    ]
    CALLS = {"est1d": 2, "hd_single": 2, "hd_two_round": 3, "pure_dp": 5}

    @pytest.mark.parametrize("name", sorted(harness.ESTIMATORS))
    def test_every_stage_budget_is_reported(self, name, monkeypatch):
        budgets = []
        for module, attr in self.STAGES:
            original = getattr(module, attr)

            def recorded(*args, _original=original, **kwargs):
                bound = inspect.signature(_original).bind(*args, **kwargs)
                budgets.append(bound.arguments["budget"])
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, attr, recorded)
        d, delta = REGISTRY_CASES[name]
        data = PersonMeans(np.random.default_rng(5).normal(0.3, 0.1, size=(3000, d)), 64)
        params = ProblemParams(k=4.0, alpha=0.5, beta=0.1, range_R=2.0)
        report = harness.ESTIMATORS[name](data, PrivacyBudget(3.44, delta), params, 7)

        assert len(budgets) == self.CALLS[name]
        groups = [0] * 2 * d + [1] if name == "pure_dp" else [0] * len(budgets)
        entries = [(b.epsilon, b.delta, g) for b, g in zip(budgets, groups)]
        assert report.params["ledger"] == entries
        # basic composition within a group, parallel composition across groups
        per_group = [
            [math.fsum(e[i] for e in entries if e[2] == g) for i in (0, 1)] for g in set(groups)
        ]
        assert [report.epsilon, report.delta] == [max(col) for col in zip(*per_group)]


class TestConfigValidation:
    def test_estimator_budget_compat(self, tmp_path):
        with pytest.raises(ConfigurationError):
            one_point_config(tmp_path, estimator="pure_dp", delta=[1e-6])
        with pytest.raises(ConfigurationError):
            one_point_config(tmp_path, estimator="hd_two_round", delta=[0.0])

    def test_unknown_estimator(self, tmp_path):
        with pytest.raises(ConfigurationError):
            one_point_config(tmp_path, estimator="magic")

    def test_d_must_match_spec(self, tmp_path):
        with pytest.raises(ConfigurationError):
            one_point_config(tmp_path, d=[3])

    @staticmethod
    def payload(output_path, **overrides):
        payload = {
            "estimator": "est1d",
            "spec": json.loads(SPEC1.to_json()),
            "n": [256],
            "m": [100],
            "epsilon": [1.0],
            "delta": [0.0],
            "alpha": [0.15],
            "k": [4.0],
            "trials": 1,
            "seed": 99,
            "output_path": output_path,
        }
        payload.update(overrides)
        return json.dumps(payload)

    def test_from_json_round_trip(self, tmp_path):
        cfg = one_point_config(tmp_path)
        parsed = ExperimentConfig.from_json(self.payload(cfg.output_path))
        assert parsed.grid_points() == cfg.grid_points()

    @pytest.mark.parametrize(
        "key,value",
        [("n", [256.9]), ("m", [100.5]), ("d", [1.5]), ("trials", 2.7), ("trials", True),
         ("seed", 3.9), ("seed", "99"), ("n", [float("inf")])],
    )
    def test_from_json_rejects_non_integers(self, tmp_path, key, value):
        # int() would truncate these (true reads as 1) instead of refusing them
        with pytest.raises(ConfigurationError, match="malformed experiment config"):
            ExperimentConfig.from_json(self.payload(str(tmp_path / "out.csv"), **{key: value}))

    @pytest.mark.parametrize(
        "key,value",
        [("epsilon", [True]), ("alpha", ["0.15"]), ("delta", [False]), ("k", ["4"]),
         ("beta", True), ("range_R", "2.0"), ("epsilon", [10**400])],
    )
    def test_from_json_rejects_non_numbers(self, tmp_path, key, value):
        # float() would read true as 1.0 and "0.15" as 0.15 instead of refusing them
        with pytest.raises(ConfigurationError, match="malformed experiment config"):
            ExperimentConfig.from_json(self.payload(str(tmp_path / "out.csv"), **{key: value}))

    def test_from_json_rejects_non_number_spec_k(self, tmp_path):
        spec = {**json.loads(SPEC1.to_json()), "k": True}
        with pytest.raises(ConfigurationError, match="malformed spec JSON"):
            ExperimentConfig.from_json(self.payload(str(tmp_path / "out.csv"), spec=spec))

    def test_from_json_accepts_integral_floats(self, tmp_path):
        cfg = one_point_config(tmp_path)
        text = self.payload(cfg.output_path, n=[256.0], m=[100.0], trials=1.0, seed=99.0)
        parsed = ExperimentConfig.from_json(text)
        assert parsed.grid_points() == cfg.grid_points()
        assert (parsed.trials, parsed.seed) == (1, 99)
        assert all(type(v) is int for v in parsed.n + parsed.m + [parsed.trials, parsed.seed])

    @pytest.mark.parametrize(
        "key,value",
        [("m", [16.5]), ("trials", 100000.5), ("trials", True), ("seed", 5.5),
         ("grid_points_per_window", 2.5)],
    )
    def test_tailbench_from_json_rejects_non_integers(self, tmp_path, key, value):
        payload = {
            "specs": [json.loads(SPEC1.to_json())],
            "m": [16],
            "bounds": ["berry_esseen"],
            "trials": 1e5,
            "seed": 5,
            "output_path": str(tmp_path / "tb.csv"),
        }
        assert TailbenchConfig.from_json(json.dumps(payload)).trials == 100_000
        payload[key] = value
        with pytest.raises(ConfigurationError, match="malformed tailbench config"):
            TailbenchConfig.from_json(json.dumps(payload))


class TestRunExperiment:
    def test_one_point_one_trial_rows(self, tmp_path):
        cfg = one_point_config(tmp_path)
        run_experiment(cfg)
        rows = read_rows(cfg.output_path)
        assert len(rows) == 2
        assert rows[0]["row_type"] == "trial"
        assert rows[1]["row_type"] == "summary"
        assert rows[0]["schema_version"] == CSV_SCHEMA_VERSION
        assert set(rows[0]) == set(TrialRow)

    def test_rerun_identical_modulo_wall_time(self, tmp_path):
        cfg_a = one_point_config(tmp_path, trials=3, name="a.csv")
        cfg_b = one_point_config(tmp_path, trials=3, name="b.csv")
        run_experiment(cfg_a)
        run_experiment(cfg_b)
        rows_a = read_rows(cfg_a.output_path)
        rows_b = read_rows(cfg_b.output_path)
        for ra, rb in zip(rows_a, rows_b):
            ra.pop("wall_time_ms")
            rb.pop("wall_time_ms")
            assert ra == rb

    def test_threads_do_not_change_row_contents(self, tmp_path):
        cfg_a = one_point_config(tmp_path, trials=4, name="serial.csv", n=[64, 256])
        cfg_b = one_point_config(tmp_path, trials=4, name="parallel.csv", n=[64, 256])
        run_experiment(cfg_a, threads=1)
        run_experiment(cfg_b, threads=4)
        key = lambda r: (r["row_type"], r["n"], r["trial"])
        rows_a = sorted(read_rows(cfg_a.output_path), key=key)
        rows_b = sorted(read_rows(cfg_b.output_path), key=key)
        for ra, rb in zip(rows_a, rows_b):
            ra.pop("wall_time_ms")
            rb.pop("wall_time_ms")
            assert ra == rb

    @pytest.mark.parametrize("threads", [0, -1])
    def test_threads_below_one_rejected(self, tmp_path, threads):
        cfg = one_point_config(tmp_path)
        with pytest.raises(ConfigurationError, match="threads must be >= 1"):
            run_experiment(cfg, threads=threads)
        assert not (tmp_path / "out.csv").exists()

    def test_summary_statistics(self, tmp_path):
        cfg = one_point_config(tmp_path, trials=5)
        run_experiment(cfg)
        rows = read_rows(cfg.output_path)
        summary = rows[-1]
        errors = [float(r["l2_error"]) for r in rows[:-1]]
        assert float(summary["median_error"]) == float(np.median(errors))
        assert float(summary["success_rate"]) == np.mean([e <= 0.15 for e in errors])

    def test_estimation_failure_recorded_as_inf(self, tmp_path):
        # two-round at tiny n: stability histogram suppresses everything
        spec = SyntheticSpec("scaled_gaussian", mean=(0.3, 0.1), k=4.0)
        cfg = ExperimentConfig(
            estimator="hd_two_round",
            spec=spec,
            n=[96],
            m=[100],
            epsilon=[1.0],
            delta=[1e-6],
            alpha=[0.4],
            k=[4.0],
            trials=2,
            seed=3,
            output_path=str(tmp_path / "fail.csv"),
        )
        run_experiment(cfg)
        rows = read_rows(cfg.output_path)
        assert all(r["l2_error"] == "inf" for r in rows if r["row_type"] == "trial")
        assert float(rows[-1]["success_rate"]) == 0.0


    def test_first_exception_stops_pending_trials(self, tmp_path, monkeypatch):
        calls = []

        def failing(config, point, trial):
            calls.append(trial)
            raise ParameterError("bad grid")

        monkeypatch.setattr(harness, "_run_one", failing)
        cfg = one_point_config(tmp_path, trials=20)
        with pytest.raises(ParameterError, match="bad grid"):
            run_experiment(cfg, threads=1)
        assert calls == [0]
        calls.clear()
        with pytest.raises(ParameterError, match="bad grid"):
            run_experiment(cfg, threads=4)
        assert len(calls) <= 4


    def test_workers_are_bounded_by_trials(self, tmp_path, monkeypatch, thread_starts):
        # two trials need at most one helper beside the caller, whatever threads asks for
        def cheap(config, point, trial):
            time.sleep(0.01)
            return harness._row(config, point, "trial", trial=trial, l2_error=repr(0.01 * trial))

        monkeypatch.setattr(harness, "_run_one", cheap)
        cfg = one_point_config(tmp_path, trials=2)
        run_experiment(cfg, threads=16)
        assert len(thread_starts) <= 1
        assert len(read_rows(cfg.output_path)) == 3

    def test_failed_helper_start_joins_the_started_helper(self, tmp_path, monkeypatch):
        # a helper started before a failed start must not keep running trials
        # into the file that the failure closes
        started = []

        class FailsSecond(threading.Thread):
            def start(self):
                if started:
                    raise RuntimeError("can't start new thread")
                super().start()
                started.append(self)

        def slow(config, point, trial):
            time.sleep(0.02)
            return harness._row(config, point, "trial", trial=trial, l2_error=repr(0.01 * trial))

        monkeypatch.setattr(threading, "Thread", FailsSecond)
        monkeypatch.setattr(harness, "_run_one", slow)
        cfg = one_point_config(tmp_path, trials=20)
        try:
            with pytest.raises(RuntimeError, match="can't start new thread"):
                run_experiment(cfg, threads=4)
            assert len(started) == 1
            assert not started[0].is_alive()
        finally:
            for helper in started:
                helper.join(timeout=10)

    def test_many_workers_lose_no_trial(self, tmp_path, monkeypatch):
        def cheap(config, point, trial):
            return harness._row(config, point, "trial", trial=trial, l2_error=repr(0.01 * trial))

        monkeypatch.setattr(harness, "_run_one", cheap)
        cfg = one_point_config(tmp_path, trials=50, n=[64, 128, 256, 512])
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            run_experiment(cfg, threads=8)
        finally:
            sys.setswitchinterval(interval)
        rows = read_rows(cfg.output_path)
        trials = sorted((int(r["n"]), int(r["trial"])) for r in rows if r["row_type"] == "trial")
        assert trials == sorted((n, t) for n in (64, 128, 256, 512) for t in range(50))
        for n in ("64", "128", "256", "512"):
            mine = [r["row_type"] for r in rows if r["n"] == n]
            assert mine == ["trial"] * 50 + ["summary"]  # the summary follows all 50 trials
        summaries = [r for r in rows if r["row_type"] == "summary"]
        assert {r["success_rate"] for r in summaries} == {repr(16 / 50)}

class TestRunTailbench:
    def test_single_bound_rows_and_flags(self, tmp_path):
        cfg = TailbenchConfig(
            specs=[SPEC1],
            m=[16],
            bounds=["berry_esseen"],
            trials=10**5,
            seed=5,
            output_path=str(tmp_path / "tb.csv"),
            grid_points_per_window=1,
        )
        run_tailbench(cfg)
        rows = read_rows(cfg.output_path)
        assert len(rows) == 1
        assert rows[0]["bound_name"] == "berry_esseen"
        assert rows[0]["valid_window"] == "1"
        assert rows[0]["pass"] == "1"

    def test_unresolved_row_left_blank(self, tmp_path):
        # 0 hits in 1e5 trials at the largest t: 3 stderr (1.5e-5) is wider
        # than the bound (1.1e-5), so the row neither passes nor fails
        spec4 = SyntheticSpec("scaled_gaussian", mean=(0.0,) * 4, k=4.0)
        cfg = TailbenchConfig(
            specs=[spec4],
            m=[64],
            bounds=["highd"],
            trials=10**5,
            seed=5,
            output_path=str(tmp_path / "tb4.csv"),
        )
        run_tailbench(cfg)
        rows = read_rows(cfg.output_path)
        last = rows[-1]
        empirical, stderr = float(last["empirical"]), float(last["stderr"])
        assert empirical == 0.0
        assert empirical - 3 * stderr <= float(last["bound_value"]) < empirical + 3 * stderr
        assert last["pass"] == ""

    def test_invalid_domain_flagged_not_dropped(self, tmp_path):
        # heavytail grid points sit outside the explicit window at m=16 but
        # must still be evaluated and emitted with valid_window = 0
        cfg = TailbenchConfig(
            specs=[SPEC1],
            m=[16],
            bounds=["heavytail"],
            trials=10**5,
            seed=5,
            output_path=str(tmp_path / "tb2.csv"),
            grid_points_per_window=3,
        )
        run_tailbench(cfg)
        rows = read_rows(cfg.output_path)
        assert len(rows) == 3
        assert any(r["valid_window"] == "0" for r in rows)

    def test_dimension_routing(self, tmp_path):
        spec2 = SyntheticSpec("scaled_gaussian", mean=(0.0, 0.0), k=4.0)
        cfg = TailbenchConfig(
            specs=[SPEC1, spec2],
            m=[16],
            bounds=["berry_esseen", "highd"],
            trials=10**5,
            seed=5,
            output_path=str(tmp_path / "tb3.csv"),
            grid_points_per_window=2,
        )
        run_tailbench(cfg)
        rows = read_rows(cfg.output_path)
        # univariate spec -> berry_esseen only; bivariate -> highd only
        assert {(r["family"], r["bound_name"], r["d"]) for r in rows} == {
            ("scaled_gaussian", "berry_esseen", "1"),
            ("scaled_gaussian", "highd", "2"),
        }

    def test_family_without_frozen_constant_rejected(self, tmp_path):
        # student_t has no frozen calibration constant, so no verdict can be given
        spec_t = SyntheticSpec("student_t", mean=(0.0,), k=4.0, extra={"df": 9.0})
        with pytest.raises(ConfigurationError, match="student_t"):
            TailbenchConfig(
                specs=[SPEC1, spec_t],
                m=[16],
                bounds=["berry_esseen"],
                trials=10**5,
                seed=5,
                output_path=str(tmp_path / "tb5.csv"),
            )
