import importlib.util
import json
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from dpmean import cli
from dpmean.cli import DatasetFormatError, main, read_dataset_csv

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "dpmean.cli", *args], capture_output=True, text=True
    )


class TestReadDataset:
    def test_fixture_parses(self):
        data = read_dataset_csv(str(FIXTURES / "est1d_dataset.csv"))
        assert data.values.shape == (256, 25, 1)

    def test_missing_column_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("person_id,sample_id,x1\n0,0,1.0\n0,1\n")
        with pytest.raises(DatasetFormatError, match="line 3"):
            read_dataset_csv(str(path))

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("pid,sid,x1\n0,0,1.0\n")
        with pytest.raises(DatasetFormatError, match="line 1"):
            read_dataset_csv(str(path))

    def test_unequal_sample_counts_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("person_id,sample_id,x1\n0,0,1.0\n0,1,1.0\n1,0,2.0\n")
        with pytest.raises(DatasetFormatError, match="unequal"):
            read_dataset_csv(str(path))

    def test_multivariate_columns(self, tmp_path):
        path = tmp_path / "ok.csv"
        path.write_text(
            "person_id,sample_id,x1,x2\n0,0,1.0,2.0\n0,1,3.0,4.0\n1,0,5.0,6.0\n1,1,7.0,8.0\n"
        )
        data = read_dataset_csv(str(path))
        assert data.values.shape == (2, 2, 2)

    def test_duplicate_sample_rejected(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("person_id,sample_id,x1\np0,0,1.0\np0,0,5.0\np1,0,2.0\np1,1,2.0\n")
        with pytest.raises(DatasetFormatError, match="line 3"):
            read_dataset_csv(str(path))

    def test_numerically_equal_ids_are_duplicates(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("person_id,sample_id,x1\n0,1,1.0\n0,1.0,2.0\n")
        with pytest.raises(DatasetFormatError, match="line 3"):
            read_dataset_csv(str(path))

    def test_ids_float_rejects_sort_as_strings(self, tmp_path):
        # "--1" and ".-5" pass a naive digit test but float() rejects them
        path = tmp_path / "ids.csv"
        path.write_text("person_id,sample_id,x1\n0,.-5,2.0\n0,--1,1.0\n1,.-5,4.0\n1,--1,3.0\n")
        data = read_dataset_csv(str(path))
        assert data.values[:, :, 0].tolist() == [[1.0, 2.0], [3.0, 4.0]]

    @pytest.mark.parametrize(
        "low,high",
        [
            # one apart above 2^53, where float() maps both to 2^53
            ("9007199254740992", "9007199254740993"),
            # 400 digits, where float() maps both to inf
            ("1" * 400, "2" * 400),
            # apart in the 20th decimal place, below float resolution
            ("0.1", "0.10000000000000000001"),
        ],
        ids=["above_2**53", "400_digits", "20th_decimal_place"],
    )
    def test_distinct_numeric_ids_never_collide(self, tmp_path, low, high):
        path = tmp_path / "ids.csv"
        path.write_text(f"person_id,sample_id,x1\np0,{high},2.0\np0,{low},1.0\n")
        data = read_dataset_csv(str(path))
        assert data.values[0, :, 0].tolist() == [1.0, 2.0]

    def test_numeric_ids_sort_numerically(self, tmp_path):
        path = tmp_path / "ids.csv"
        path.write_text("person_id,sample_id,x1\n0,10,3.0\n0,9,2.0\n0,-1.5,1.0\n0,-.5,1.5\n")
        data = read_dataset_csv(str(path))
        assert data.values[0, :, 0].tolist() == [1.0, 1.5, 2.0, 3.0]


HEADER1 = "person_id,sample_id,x1\n"


def spy_fast_parse(monkeypatch):
    """Record whether each ``read_dataset_csv`` call took the one-call parse."""
    taken = []

    def spy(*args, _original=cli._parse_fast):
        values = _original(*args)
        taken.append(values is not None)
        return values

    monkeypatch.setattr(cli, "_parse_fast", spy)
    return taken


def outcome(path):
    """The array bytes and shape that ``read_dataset_csv`` returns, or the
    type and message of what it raises."""
    try:
        values = read_dataset_csv(str(path)).values
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        return type(exc), str(exc)
    return values.tobytes(), values.shape


class TestFastParse:
    """The one-call parse against the row loop, which is the reference."""

    @pytest.mark.parametrize(
        "body,fast",
        [
            ("p0,0,1.5\np0,1,2.5\np1,0,3.5\np1,1,4.5\n", True),
            ("p0,0,1.5\r\n\r\np0,1,2.5\r\n\r\np1,1,4.5\r\np1,0,3.5\r\n\n", True),
            ("  p0 , 1 ,1.5\np0,0 , 2.5\n\tp1\t,0,3.5\np1 ,  1,4.5\n", True),
            ('#p0,"0,1.5\n#p0,1",2.5\n"p1,"0,3.5\n"p1,1",4.5\n', True),
            ("p0,0,1.5\x0cp0,1,2.5\np1,0,3.5\np1,1,4.5\n", True),
            ("p0,0,1_5\np0,1,2.5\np1,0,3.5\np1,1,4.5\n", False),
            ("p0,0,1.5\xa0\np0,1,\xa02.5\np1,0,3.5\np1,1,4.5\n", True),
            ("p0,0,١.٥\np0,1,2.5\np1,0,3.5\np1,1,4.5\n", False),
            ("p0,0,1.5\x1f\np0,1,2.5\np1,0,3.5\np1,1,4.5\n", False),
            ("p0,b,1\np0,10,2\np0,9.5,3\np0,-1,4\np0,a,5\n"
             "p1,a,6\np1,-1,7\np1,9.50,8\np1,b,9\np1,10.0,10\n", True),
            ("p0,7,1.25\n", True),
            ("p0,0,1.5\np0,1,nan\np1,0,3.5\np1,1,4.5\n", True),
            ("p0,1,1.5\np0,1.0,2.5\np1,0,3.5\np1,1,4.5\n", False),
            ("p0,0,1.5\n   \np0,1,2.5\np1,0,3.5\np1,1,4.5\n", True),
            ("p0,0,1.5\np0,1,2.5\n\t\t\r\np1,0,3.5\np1,1,4.5\n", True),
            ("\xa0\np0,0,1.5\np0,1,2.5\np1,0,3.5\np1,1,4.5\n \t\xa0", True),
        ],
        ids=["plain", "blank_lines_crlf", "padded_ids", "hash_and_quote_in_ids",
             "formfeed_splits_line", "underscore_digits", "nbsp_in_value",
             "arabic_indic_digits", "unit_separator_in_value", "mixed_sample_ids",
             "one_row", "nan", "numerically_equal_ids", "spaces_line", "tabs_line_crlf",
             "nbsp_lines_first_and_last"],
    )
    def test_matches_row_loop(self, tmp_path, monkeypatch, body, fast):
        path = tmp_path / "data.csv"
        path.write_bytes((HEADER1 + body).encode())
        taken = spy_fast_parse(monkeypatch)
        got = outcome(path)
        assert taken == [fast]
        monkeypatch.setattr(cli, "_parse_fast", lambda *args: None)
        assert got == outcome(path)

    def test_hard_floats_keep_the_loops_bits(self, tmp_path, monkeypatch):
        values = ["0.1000000000000000055511151231257827", "2.2250738585072011e-308",
                  "1e-320", "-0.0", "4.9406564584124654e-324", "1.7976931348623157e308",
                  "9007199254740993", "0.30000000000000004441"]
        path = tmp_path / "hard.csv"
        path.write_text(HEADER1 + "".join(f"p0,{i},{v}\n" for i, v in enumerate(values)))
        taken = spy_fast_parse(monkeypatch)
        got = read_dataset_csv(str(path)).values
        assert taken == [True]
        assert got[0, :, 0].tobytes() == np.array([float(v) for v in values]).tobytes()
        monkeypatch.setattr(cli, "_parse_fast", lambda *args: None)
        assert got.tobytes() == read_dataset_csv(str(path)).values.tobytes()

    def test_shuffled_file_reads_back_the_array_written(self, tmp_path, monkeypatch):
        n, m, d = 2048, 32, 4
        rng = np.random.default_rng(12)
        written = rng.standard_normal((n, m, d)) * 10.0 ** rng.integers(-5, 6, (n, m, d))
        rows = [(p, s) for p in range(n) for s in range(m)]
        order = rng.permutation(len(rows))
        lines = ["person_id,sample_id,x1,x2,x3,x4"]
        for r in order:
            p, s = rows[r]
            lines.append(f"u{p},{s}," + ",".join(map(repr, written[p, s].tolist())))
        path = tmp_path / "big.csv"
        path.write_text("\n".join(lines) + "\n")
        taken = spy_fast_parse(monkeypatch)
        got = read_dataset_csv(str(path)).values
        assert taken == [True]
        first_seen = list(dict.fromkeys(rows[r][0] for r in order))
        assert got.tobytes() == written[first_seen].tobytes()


class TestCliProcess:
    def test_unknown_subcommand_usage_exit_2(self):
        proc = run_cli("frobnicate")
        assert proc.returncode == 2
        assert "usage" in proc.stderr.lower()

    def test_no_subcommand_exit_2(self):
        proc = run_cli()
        assert proc.returncode == 2

    def test_malformed_csv_exit_2(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("person_id,sample_id,x1\n0,0,oops\n")
        proc = run_cli(
            "estimate", "--data", str(path), "--config", str(FIXTURES / "est1d_config.json")
        )
        assert proc.returncode == 2
        assert "line 2" in proc.stderr


class TestEstimateInProcess:
    def test_fixture_estimate_within_tolerance(self, capsys):
        meta = json.loads((FIXTURES / "est1d_fixture.json").read_text())
        rc = main(
            [
                "estimate",
                "--data",
                str(FIXTURES / "est1d_dataset.csv"),
                "--config",
                str(FIXTURES / "est1d_config.json"),
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["estimate"][0] - meta["true_mean"]) <= meta["tolerance"]

    def test_flag_overrides(self, capsys):
        rc = main(
            [
                "estimate",
                "--data",
                str(FIXTURES / "est1d_dataset.csv"),
                "--estimator",
                "est1d",
                "--epsilon",
                "1",
                "--k",
                "4",
                "--alpha",
                "0.35",
                "--seed",
                "7",
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["epsilon"] == 1.0

    def test_pure_dp_rejects_delta_exit_2(self, capsys):
        rc = main(
            [
                "estimate",
                "--data",
                str(FIXTURES / "est1d_dataset.csv"),
                "--estimator",
                "pure_dp",
                "--epsilon",
                "1",
                "--delta",
                "1e-6",
                "--k",
                "4",
                "--alpha",
                "0.35",
                "--seed",
                "7",
            ]
        )
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert "pure_dp" in captured.err and "delta" in captured.err

    def test_config_not_json_exit_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text("{not json")
        rc = main(["estimate", "--data", str(FIXTURES / "est1d_dataset.csv"),
                   "--config", str(cfg_path)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert "estimate config" in captured.err

    @pytest.mark.parametrize("seed", [3.9, True, "7"])
    def test_config_non_integer_seed_exit_2(self, tmp_path, capsys, seed):
        cfg = json.loads((FIXTURES / "est1d_config.json").read_text())
        cfg["seed"] = seed
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        rc = main(["estimate", "--data", str(FIXTURES / "est1d_dataset.csv"),
                   "--config", str(cfg_path)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert "malformed estimate config" in captured.err

    @pytest.mark.parametrize(
        "key,value",
        [("k", "4"), ("alpha", True), ("beta", "0.1"), ("range_R", "2.0"), ("epsilon", True),
         ("delta", False)],
    )
    def test_config_non_number_float_exit_2(self, tmp_path, capsys, key, value):
        cfg = json.loads((FIXTURES / "est1d_config.json").read_text())
        cfg[key] = value
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        rc = main(["estimate", "--data", str(FIXTURES / "est1d_dataset.csv"),
                   "--config", str(cfg_path)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert "malformed estimate config" in captured.err

    @pytest.mark.parametrize(
        "estimator,flag,field",
        [("pure_dp", "--alpha", "alpha"), ("est1d", "--range-R", "range_R"),
         ("est1d", "--epsilon", "epsilon"), ("hd_single", "--k", "k")],
    )
    def test_non_finite_parameter_exit_2(self, capsys, estimator, flag, field):
        args = {"--epsilon": "1", "--k": "4", "--alpha": "0.35", "--seed": "7"}
        if estimator == "hd_single":
            args["--delta"] = "1e-6"
        args[flag] = "inf"
        rc = main(["estimate", "--data", str(FIXTURES / "est1d_dataset.csv"),
                   "--estimator", estimator, *(x for item in args.items() for x in item)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert f"{field} must be finite" in captured.err

    def test_overflowing_person_mean_exit_2(self, tmp_path, capsys):
        # every value is finite, but person p3's average of 4 samples overflows
        lines = ["person_id,sample_id,x1,x2"]
        for p in range(30):
            value = "1.7e308" if p == 3 else "0.25"
            lines += [f"p{p},{s},{value},{value}" for s in range(4)]
        path = tmp_path / "overflow.csv"
        path.write_text("\n".join(lines) + "\n")
        rc = main(["estimate", "--data", str(path), "--estimator", "hd_single",
                   "--epsilon", "1", "--delta", "1e-6", "--k", "4", "--alpha", "0.5",
                   "--seed", "7"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert "person 3 has a non-finite mean" in captured.err

    def test_missing_required_exit_2(self):
        rc = main(["estimate", "--data", str(FIXTURES / "est1d_dataset.csv")])
        assert rc == 2

    def test_out_file_written(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = main(
            [
                "estimate",
                "--data",
                str(FIXTURES / "est1d_dataset.csv"),
                "--config",
                str(FIXTURES / "est1d_config.json"),
                "--out",
                str(out),
            ]
        )
        capsys.readouterr()
        assert rc == 0
        assert json.loads(out.read_text())["seed"] == 7


class TestSweepInProcess:
    def test_sweep_runs_from_config(self, tmp_path, capsys):
        cfg = {
            "estimator": "est1d",
            "spec": {"family": "scaled_gaussian", "mean": [0.3], "k": 4.0, "extra": {}},
            "n": [256],
            "m": [100],
            "epsilon": [1.0],
            "delta": [0.0],
            "alpha": [0.15],
            "k": [4.0],
            "trials": 2,
            "seed": 3,
            "output_path": str(tmp_path / "sweep.csv"),
        }
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(json.dumps(cfg))
        rc = main(["sweep", "--config", str(cfg_path)])
        capsys.readouterr()
        assert rc == 0
        assert (tmp_path / "sweep.csv").exists()

    def test_sweep_threads_below_one_exit_2(self, tmp_path, capsys):
        cfg = {
            "estimator": "est1d",
            "spec": {"family": "scaled_gaussian", "mean": [0.3], "k": 4.0, "extra": {}},
            "n": [256],
            "m": [100],
            "epsilon": [1.0],
            "delta": [0.0],
            "alpha": [0.15],
            "k": [4.0],
            "trials": 2,
            "seed": 3,
            "output_path": str(tmp_path / "sweep.csv"),
        }
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(json.dumps(cfg))
        rc = main(["sweep", "--config", str(cfg_path), "--threads", "0"])
        assert rc == 2
        assert "threads must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    def test_tailbench_threads_below_one_exit_2(self, tmp_path, capsys):
        cfg = {
            "specs": [{"family": "scaled_gaussian", "mean": [0.0], "k": 4.0, "extra": {}}],
            "m": [16],
            "bounds": ["berry_esseen"],
            "trials": 100_000,
            "seed": 3,
            "output_path": str(tmp_path / "tail.csv"),
        }
        cfg_path = tmp_path / "tail.json"
        cfg_path.write_text(json.dumps(cfg))
        rc = main(["tailbench", "--config", str(cfg_path), "--threads", "0"])
        assert rc == 2
        assert "threads must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "tail.csv").exists()

    @staticmethod
    def write_config(tmp_path, name, config, **overrides):
        config = {**config, "output_path": str(tmp_path / f"{name}.csv"), **overrides}
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(config))
        return str(path)

    SWEEP = {
        "estimator": "est1d",
        "spec": {"family": "scaled_gaussian", "mean": [0.3], "k": 4.0, "extra": {}},
        "n": [256],
        "m": [100],
        "epsilon": [1.0],
        "delta": [0.0],
        "alpha": [0.15],
        "k": [4.0],
        "trials": 2,
        "seed": 3,
    }

    @pytest.mark.parametrize(
        "overrides, flags, message",
        [
            ({"n": []}, [], "grid n needs at least one value"),
            ({"epsilon": [-1.0]}, [], "epsilon must be > 0"),
            ({}, ["--seed", "-1"], "seed must fit in uint64"),
            # each trial re-builds the spec at its grid k, and df 3.5 <= 4
            (
                {"spec": {"family": "student_t", "mean": [0.0], "k": 3.0, "extra": {"df": 3.5}},
                 "k": [4.0]},
                [],
                "student_t requires df > k",
            ),
            # json writes and reads NaN; before the df check, the sweep wrote
            # its header and then stopped on a non-finite person mean
            (
                {"spec": {"family": "student_t", "mean": [0.0], "k": 4.0,
                          "extra": {"df": float("nan")}}},
                [],
                "student_t df",
            ),
            # the coarse bucket width 8/sqrt(m) reaches range_R = 2 at m = 16
            ({"m": [64, 16]}, [], "coarse bucket width"),
            ({"estimator": "pure_dp", "m": [16]}, [], "coarse bucket width"),
            # esthd_approx's width 8 sqrt(d/m)/sqrt(d) is 2.67 at m = 9 and
            # 2.0 at d = 3, m = 16
            (
                {"estimator": "hd_single", "m": [64, 9], "delta": [1e-6],
                 "spec": {"family": "scaled_gaussian", "mean": [0.3, 0.1], "k": 4.0,
                          "extra": {}}},
                [],
                "coarse bucket width",
            ),
            (
                {"estimator": "hd_two_round", "m": [16], "delta": [1e-6],
                 "spec": {"family": "scaled_gaussian", "mean": [0.3, 0.1, 0.0], "k": 4.0,
                          "extra": {}}},
                [],
                "coarse bucket width",
            ),
        ],
        ids=["empty_axis", "negative_epsilon", "negative_seed_flag", "spec_at_grid_k",
             "nan_student_t_df", "est1d_coarse_width_at_range", "pure_dp_coarse_width_at_range",
             "hd_single_coarse_width_at_range", "hd_two_round_coarse_width_at_range"],
    )
    def test_sweep_rejected_before_output_exit_2(self, tmp_path, capsys, overrides, flags, message):
        cfg_path = self.write_config(tmp_path, "sweep", self.SWEEP, **overrides)
        rc = main(["sweep", "--config", cfg_path, *flags])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not (tmp_path / "sweep.csv").exists()

    TAILBENCH = {
        "specs": [{"family": "scaled_gaussian", "mean": [0.0], "k": 4.0, "extra": {}}],
        "m": [16],
        "bounds": ["berry_esseen"],
        "trials": 100_000,
        "seed": 3,
    }

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"m": [1]}, "m >= 2"),
            ({"m": [16, 0]}, "m >= 2"),
            ({"grid_points_per_window": 0}, "grid_points_per_window must be >= 1"),
            ({"specs": [], "bounds": []}, "at least one spec and one bound"),
            ({"bounds": []}, "at least one spec and one bound"),
            # highd is multivariate, and heavytail needs k >= 3
            ({"bounds": ["highd"]}, "applies to any spec"),
            (
                {"specs": [{"family": "scaled_gaussian", "mean": [0.0], "k": 2.5, "extra": {}}],
                 "bounds": ["heavytail"]},
                "applies to any spec",
            ),
        ],
        ids=["m_one", "m_zero", "no_grid_points", "no_specs_or_bounds", "no_bounds",
             "univariate_highd", "heavytail_below_k3"],
    )
    def test_tailbench_rejected_before_output_exit_2(self, tmp_path, capsys, overrides, message):
        cfg_path = self.write_config(tmp_path, "tail", self.TAILBENCH, **overrides)
        rc = main(["tailbench", "--config", cfg_path])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not (tmp_path / "tail.csv").exists()

    def test_sweep_config_not_json_exit_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text("{not json")
        rc = main(["sweep", "--config", str(cfg_path)])
        assert rc == 2
        assert "experiment config" in capsys.readouterr().err

    def test_sweep_config_wrong_type_exit_2(self, tmp_path, capsys):
        cfg = {
            "estimator": "est1d",
            "spec": {"family": "scaled_gaussian", "mean": [0.3], "k": 4.0, "extra": {}},
            "n": 5,
            "m": [100],
            "epsilon": [1.0],
            "delta": [0.0],
            "alpha": [0.15],
            "k": [4.0],
            "trials": 2,
            "seed": 3,
            "output_path": str(tmp_path / "sweep.csv"),
        }
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(json.dumps(cfg))
        rc = main(["sweep", "--config", str(cfg_path)])
        assert rc == 2
        assert "experiment config" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    def test_lemma_checks_exit_zero(self, capsys):
        rc = main(["lemma-checks", "--seed", "7"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "all passed" in out


def test_selftest_is_an_unknown_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["selftest"])
    assert exc.value.code == 2
    assert "invalid choice: 'selftest'" in capsys.readouterr().err


def test_fixture_script_reproduces_fixtures(tmp_path, monkeypatch, capsys):
    path = pathlib.Path(__file__).parents[1] / "scripts" / "make_cli_fixture.py"
    spec = importlib.util.spec_from_file_location("make_cli_fixture", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(script, "FIXTURE_DIR", tmp_path)
    assert script.main() == 0
    capsys.readouterr()
    for name in ("est1d_dataset.csv", "est1d_config.json", "est1d_fixture.json"):
        assert (tmp_path / name).read_bytes() == (FIXTURES / name).read_bytes(), name
