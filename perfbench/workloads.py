"""The four workloads: their inputs, their operations and the checks made on
their outputs.

Every input comes from the workload seed and the operation's place in the
run (pass, index), through the benchmark's own generator, so the same seed
gives the same work and the same outputs.  A workload is a fixed pass of
operations in a fixed order; the run repeats passes, each with fresh inputs,
for as long as its window allows.  The program sees only the configs and
files built here, through its public entry points.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from pathlib import Path

import numpy as np

import exact

_TAGS = {"approx_sweep": 1, "pure_sweep": 2, "csv_release": 3, "tail_lab": 4}
_K = 4.0


def op_seed(seed: int, workload: str, pass_index: int, i: int) -> int:
    """Program seed of one operation (63 bits, so JSON and CSV keep it exact)."""
    ss = np.random.SeedSequence([seed, _TAGS[workload], pass_index, i])
    return int(ss.generate_state(1, dtype=np.uint64)[0] >> np.uint64(1))


def bench_rng(seed: int, workload: str, pass_index: int) -> np.random.Generator:
    """The benchmark's own generator for a pass's inputs (true means, files)."""
    return np.random.default_rng(np.random.SeedSequence([seed, _TAGS[workload], pass_index, 1 << 20]))


class OpFailed(Exception):
    """An operation ended without a usable output."""


def _l2(estimate, mean) -> float:
    return math.sqrt(math.fsum((e - m) ** 2 for e, m in zip(estimate, mean)))


def _close(a: float, b: float, rel: float = 1e-9) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=1e-300)


class Sweep:
    """The ``dpmean sweep`` path: one ``harness.run_experiment`` call per
    operation, on a one-point, one-trial config.

    Each operation's true mean is c * (1, ..., 1).  The coarse histogram's
    bucket edges sit at the integers here, so the offset c is stratified over
    [0, 1), one bucket width: every pass holds means near an edge and near a
    midpoint for every (estimator, family) pair.  A uniform draw over the
    box would almost never put all coordinates near an edge.
    """

    def __init__(self, dp, name, seed, workdir, *, kinds, per_pass, d, n, m, epsilon,
                 delta, alpha, beta=0.1):
        self.dp, self.name, self.seed, self.workdir = dp, name, seed, Path(workdir)
        self.kinds, self.per_pass = kinds, per_pass
        self.d, self.n, self.m = d, n, m
        self.epsilon, self.delta, self.alpha, self.beta = epsilon, delta, alpha, beta
        self.configs = [self.config(0, i) for i in range(per_pass)]

    def _offsets(self, pass_index: int) -> np.ndarray:
        strata = self.per_pass // len(self.kinds)
        u = bench_rng(self.seed, self.name, pass_index).random(self.per_pass)
        return (np.arange(self.per_pass) // len(self.kinds) + u) / strata

    def config(self, pass_index: int, i: int):
        core, harness = self.dp.core, self.dp.harness
        estimator, family = self.kinds[i % len(self.kinds)]
        extra = {"df": 10.0} if family == "student_t" else {}
        c = float(self._offsets(pass_index)[i])
        spec = core.SyntheticSpec(family, mean=(c,) * self.d, k=_K, extra=extra)
        return harness.ExperimentConfig(
            estimator=estimator, spec=spec, n=[self.n], m=[self.m], epsilon=[self.epsilon],
            delta=[self.delta], alpha=[self.alpha], k=[_K], trials=1, beta=self.beta,
            seed=op_seed(self.seed, self.name, pass_index, i),
            output_path=str(self.workdir / f"op{i}.csv"),
        )

    def prepare(self, pass_index: int, i: int):
        cfg = self.configs[i] if pass_index == 0 else self.config(pass_index, i)
        return cfg, lambda: self.dp.harness.run_experiment(cfg, threads=1)

    def collect(self, cfg, result) -> dict:
        with open(result, newline="") as fh:
            row = next(r for r in csv.DictReader(fh) if r["row_type"] == "trial")
        l2 = float(row["l2_error"])
        if not math.isfinite(l2):
            raise OpFailed(f"{cfg.estimator}: estimation failed (l2_error = {row['l2_error']})")
        row.pop("wall_time_ms")
        return {
            "row": row,
            "estimator": cfg.estimator,
            "estimate": [float(v) for v in row["estimate"].split(";")],
            "mean": [float(v) for v in cfg.spec.mean_vector()],
            "l2": l2,
        }

    def errors(self, record) -> list:
        return [record["l2"]]

    def check(self, records, attempted: int) -> list:
        bad = []
        for rec in records:
            l2 = _l2(rec["estimate"], rec["mean"])
            if len(rec["estimate"]) != self.d or not _close(l2, rec["l2"]):
                bad.append(f"l2_error: {rec['l2']!r} but |estimate - mean| = {l2!r}")
            row = rec["row"]
            if rec["estimator"] == "hd_two_round" and not float(row["rho1"]) >= float(row["rho2"]):
                bad.append(f"rho1 >= rho2: rho1 = {row['rho1']}, rho2 = {row['rho2']}")
        # A failed operation counts as an error above alpha, as in the
        # estimators' (alpha, beta) guarantee.
        within = sum(rec["l2"] <= self.alpha for rec in records)
        if within < (1 - self.beta) * attempted:
            bad.append(
                f"accuracy: {within}/{attempted} attempted operations within alpha = "
                f"{self.alpha}, below 1 - beta = {1 - self.beta}"
            )
        return bad[:5]


def approx_sweep(dp, seed, workdir):
    kinds = [(e, f) for f in ("scaled_gaussian", "student_t") for e in ("hd_two_round", "hd_single")]
    return Sweep(dp, "approx_sweep", seed, workdir, kinds=kinds, per_pass=16, d=8, n=2**14,
                 m=64, epsilon=1.0, delta=1e-6, alpha=0.5)


def pure_sweep(dp, seed, workdir):
    return Sweep(dp, "pure_sweep", seed, workdir, kinds=[("pure_dp", "scaled_gaussian")],
                 per_pass=6, d=2, n=2**15, m=64, epsilon=2.0, delta=0.0, alpha=0.25)


# csv_release files: (file name, estimator, d, people, samples per person).
CSV_FILES = (("hd4.csv", "hd_two_round", 4, 2048, 32), ("uni1.csv", "est1d", 1, 2048, 32))
CSV_EPSILON, CSV_DELTA = 1.0, 1e-6


def csv_means(seed: int) -> list:
    """True mean of each csv_release file: drawn over one coarse bucket
    width, 8 / sqrt(m), per coordinate."""
    rng = bench_rng(seed, "csv_release", 0)
    return [rng.uniform(0.0, 8 / math.sqrt(m), d) for _, _, d, _, m in CSV_FILES]


def csv_arrays(seed: int) -> list:
    """The (n, m, d) arrays that csv_release writes to disk: scaled Gaussian
    samples (k-th moment 1 per direction) around ``csv_means``."""
    rng = bench_rng(seed, "csv_release", 1)
    sigma_k = exact.gaussian_sigma_k(_K)
    return [mean + rng.standard_normal((n, m, d)) / sigma_k
            for (_, _, d, n, m), mean in zip(CSV_FILES, csv_means(seed))]


def write_csv_inputs(seed: int, workdir) -> None:
    for (fname, _, d, _, _), values in zip(CSV_FILES, csv_arrays(seed)):
        header = ",".join(["person_id", "sample_id"] + [f"x{j + 1}" for j in range(d)])
        lines = [header]
        for p, person in enumerate(values):
            for s, sample in enumerate(person):
                lines.append(f"p{p},{s}," + ",".join(map(repr, sample.tolist())))
        (Path(workdir) / fname).write_text("\n".join(lines) + "\n")


class CsvRelease:
    """The analyst's path: in-process ``dpmean estimate`` on the CSV files,
    alternating the d = 4 two-round file and the d = 1 univariate file.  The
    files stay fixed for the run; the estimator seed changes per operation."""

    name = "csv_release"
    per_pass = 16

    def __init__(self, dp, seed, workdir):
        self.dp, self.seed, self.workdir = dp, seed, Path(workdir)
        self.means = csv_means(seed)
        parser = dp.cli.build_parser()
        self.argvs = [self.argv(0, i) for i in range(self.per_pass)]
        for argv in self.argvs:
            parser.parse_args(argv)

    def argv(self, pass_index: int, i: int) -> list:
        fname, estimator = CSV_FILES[i % 2][:2]
        return ["estimate", "--data", str(self.workdir / fname), "--estimator", estimator,
                "--epsilon", repr(CSV_EPSILON), "--delta", repr(CSV_DELTA), "--k", repr(_K),
                "--alpha", "0.5", "--seed", str(op_seed(self.seed, self.name, pass_index, i))]

    def prepare(self, pass_index: int, i: int):
        argv = self.argvs[i] if pass_index == 0 else self.argv(pass_index, i)

        def call():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = self.dp.cli.main(argv)
            return code, out.getvalue()

        return i % 2, call

    def collect(self, which, result) -> dict:
        code, text = result
        if code != 0:
            raise OpFailed(f"dpmean estimate exited {code}")
        payload = json.loads(text)
        payload.pop("wall_time_ms")
        estimate = payload["estimate"]
        return {"json": payload, "estimate": estimate, "l2": _l2(estimate, self.means[which])}

    def errors(self, record) -> list:
        return [record["l2"]]

    def check(self, records, attempted: int) -> list:
        bad = []
        for rec in records:
            got = (rec["json"]["epsilon"], rec["json"]["delta"])
            if not (_close(got[0], CSV_EPSILON) and _close(got[1], CSV_DELTA)):
                bad.append(f"budget echo: report says {got}, asked ({CSV_EPSILON}, {CSV_DELTA})")
        for (fname, *_), values in zip(CSV_FILES, csv_arrays(self.seed)):
            data = self.dp.cli.read_dataset_csv(str(self.workdir / fname))
            if not np.array_equal(data.values, values):
                bad.append(f"ingest: read_dataset_csv({fname}) differs from the array written")
        return bad[:5]


class TailLab:
    """The ``dpmean tailbench`` path: one ``harness.run_tailbench`` call per
    operation over {Gaussian, point mass} x {d = 1, d = 4}, m in {16, 64},
    every bound and 10^5 trials: 12 Monte Carlo batches, 144 rows."""

    name = "tail_lab"
    per_pass = 2
    rows = 144
    trials = 100_000
    pm_alpha = 0.02
    max_z = 5.0

    def __init__(self, dp, seed, workdir):
        self.dp, self.seed, self.workdir = dp, seed, Path(workdir)
        core = dp.core
        self.specs = [
            core.SyntheticSpec("scaled_gaussian", mean=(0.0,), k=_K),
            core.SyntheticSpec("scaled_gaussian", mean=(0.0,) * 4, k=_K),
            core.SyntheticSpec("point_mass_mixture", k=_K, extra={"alpha": self.pm_alpha, "v": [1.0]}),
            core.SyntheticSpec("point_mass_mixture", k=_K,
                               extra={"alpha": self.pm_alpha, "v": [0.5] * 4}),
        ]
        self.calibration = dict(dp.tailbounds.FROZEN_CALIBRATION)
        self.configs = [self.config(0, i) for i in range(self.per_pass)]

    def config(self, pass_index: int, i: int):
        return self.dp.harness.TailbenchConfig(
            specs=self.specs, m=[16, 64], bounds=["heavytail", "berry_esseen", "highd"],
            trials=self.trials, seed=op_seed(self.seed, self.name, pass_index, i),
            output_path=str(self.workdir / f"tail{i}.csv"),
        )

    def prepare(self, pass_index: int, i: int):
        cfg = self.configs[i] if pass_index == 0 else self.config(pass_index, i)
        return cfg, lambda: self.dp.harness.run_tailbench(cfg, threads=2)

    def collect(self, cfg, result) -> dict:
        with open(result, newline="") as fh:
            return {"rows": list(csv.DictReader(fh))}

    def exact_tail(self, row) -> float:
        t, m, d, k = float(row["t"]), int(row["m"]), int(row["d"]), float(row["k"])
        if row["family"] == "scaled_gaussian":
            return exact.gaussian_mean_tail(t, m, d, k)
        return exact.point_mass_mean_tail(t, m, d, k, self.pm_alpha)

    def errors(self, record) -> list:
        """|empirical - exact| on the rows whose exact tail the run resolves
        (at least ten expected hits); the rest read 0 against a tail of
        1e-40 and would make the median meaningless."""
        tails = ((float(r["empirical"]), self.exact_tail(r)) for r in record["rows"])
        return [abs(e - p) for e, p in tails if p * self.trials >= 10]

    def check(self, records, attempted: int) -> list:
        bad = []
        for rec in records:
            rows = rec["rows"]
            if len(rows) != self.rows:
                bad.append(f"row count: {len(rows)}, expected {self.rows}")
            for r in rows:
                bad.extend(self._check_row(r))
        return bad[:5]

    def _check_row(self, r) -> list:
        where = f"{r['family']} d={r['d']} m={r['m']} {r['bound_name']} t={r['t']}"
        t, m, d, k = float(r["t"]), int(r["m"]), int(r["d"]), float(r["k"])
        constant = self.calibration.get((r["family"], r["bound_name"]))
        if constant is None:
            return [f"C_cal {where}: no frozen constant for this family and bound"]
        bad = []
        if float(r["C_cal"]) != constant:
            bad.append(f"C_cal {where}: {r['C_cal']}, frozen {constant}")
        bound = exact.bound_value(r["bound_name"], m, k, t, d, constant)
        if not _close(float(r["bound_value"]), bound):
            bad.append(f"bound_value {where}: {r['bound_value']}, formula {bound!r}")
        hits = float(r["empirical"]) * self.trials
        count = round(hits)
        if abs(hits - count) > 1e-6:
            bad.append(f"empirical {where}: {r['empirical']} is not a count over {self.trials}")
        wilson = exact.wilson_halfwidth(count, self.trials)
        if not _close(float(r["stderr"]), wilson):
            bad.append(f"stderr {where}: {r['stderr']}, Wilson half-width {wilson!r}")
        p = self.exact_tail(r)
        z = exact.score_z(count, self.trials, p)
        if abs(z) > self.max_z:
            bad.append(f"exact tail {where}: empirical {r['empirical']}, exact {p!r}, z = {z:.2f}")
        return bad


WORKLOADS = {
    "approx_sweep": approx_sweep,
    "pure_sweep": pure_sweep,
    "csv_release": CsvRelease,
    "tail_lab": TailLab,
}


def make_inputs(name: str, seed: int, workdir) -> None:
    """Files a workload reads, written before its process starts (untimed)."""
    if name == "csv_release":
        write_csv_inputs(seed, workdir)
