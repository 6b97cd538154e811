import csv
import json
import sys

import numpy as np
import pytest

from dpmean import harness
from dpmean.core import (
    ConfigurationError,
    ParameterError,
    PersonDataset,
    PrivacyBudget,
    ProblemParams,
    SyntheticSpec,
    sample_dataset,
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
    def test_means_computed_once_and_no_dataset_copies(self, name, monkeypatch):
        # every stage reads row slices and column views of one means array
        d, delta = REGISTRY_CASES[name]
        spec = SyntheticSpec("scaled_gaussian", mean=(0.3,) * d, k=4.0)
        data = sample_dataset(spec, 900, 25, 3)
        calls = {"person_means": 0, "__post_init__": 0}
        for attr in calls:

            def counted(self, _original=getattr(PersonDataset, attr), _attr=attr):
                calls[_attr] += 1
                return _original(self)

            monkeypatch.setattr(PersonDataset, attr, counted)
        params = ProblemParams(k=4.0, alpha=0.5, beta=0.1, range_R=2.0)
        harness.ESTIMATORS[name](data, PrivacyBudget(2.0, delta), params, 7)
        assert calls == {"person_means": 1, "__post_init__": 0}


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

    def test_from_json_round_trip(self, tmp_path):
        cfg = one_point_config(tmp_path)
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
            "output_path": cfg.output_path,
        }
        parsed = ExperimentConfig.from_json(json.dumps(payload))
        assert parsed.grid_points() == cfg.grid_points()


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
