"""Experiment runner: seeded sweeps over (n, m, d, k, epsilon, delta, alpha)
grids, repeated trials, and CSV emission for both estimators and tail-bound
verification.

``ESTIMATORS`` is the one registry of estimators, each called as
``fn(data, budget, params, seed) -> EstimateReport``; the sweep and the CLI
both dispatch through it.

Sweeps have one execution path: ``threads`` workers (1 by default, the
calling thread among them) take trials from one queue and stop taking them
on the first exception.
Per-trial seeds derive from (config seed, grid-point hash, trial index), so
row contents never depend on execution order.  Rows are written atomically as
tasks complete; with one worker, trials run in grid order and the file itself
is byte-identical across reruns except for the wall_time_ms column.
Tailbench runs serially and ignores its ``threads`` argument.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
import threading
from dataclasses import dataclass, field

import numpy as np

from . import esthd_approx, esthd_pure, est1d, tailbounds
from .core import (
    ConfigurationError,
    EstimationFailedError,
    PrivacyBudget,
    ProblemParams,
    Seed,
    SyntheticSpec,
    derive_seed,
    sample_dataset,
    stable_hash,
)

__all__ = [
    "CSV_SCHEMA_VERSION",
    "ESTIMATORS",
    "ExperimentConfig",
    "TrialRow",
    "run_experiment",
    "TailbenchConfig",
    "run_tailbench",
    "resolve_threads",
]

CSV_SCHEMA_VERSION = "1"


def _registered(module, name: str):
    # Looked up on the module at call time, so a wrapper installed on the
    # module attribute (a profiler's, a test's monkeypatch) sees every call.
    def run(data, budget, params, seed):
        return getattr(module, name)(data, budget, params, seed)

    run.__name__ = run.__qualname__ = name
    return run


ESTIMATORS = {
    "est1d": _registered(est1d, "estimate_mean_1d"),
    "hd_single": _registered(esthd_approx, "estimate_single_round"),
    "hd_two_round": _registered(esthd_approx, "estimate_two_round"),
    "pure_dp": _registered(esthd_pure, "estimate_pure_full"),
}


def resolve_threads(requested: int | None) -> int:
    """Thread count: explicit argument, else DPMEAN_THREADS, else 1."""
    if requested is not None:
        return max(1, int(requested))
    env = os.environ.get("DPMEAN_THREADS")
    return max(1, int(env)) if env else 1


def _vec(x) -> str:
    return ";".join(repr(float(v)) for v in np.atleast_1d(x))


@dataclass
class ExperimentConfig:
    """One estimator sweep: a parameter grid, a trial count, and a seed."""

    estimator: str
    spec: SyntheticSpec
    n: list
    m: list
    epsilon: list
    delta: list
    alpha: list
    k: list
    trials: int
    seed: Seed
    output_path: str
    d: list = field(default_factory=list)
    beta: float = 0.1
    range_R: float = 2.0

    def __post_init__(self):
        if self.estimator not in ESTIMATORS:
            raise ConfigurationError(f"unknown estimator {self.estimator!r}")
        if self.trials < 1:
            raise ConfigurationError("trials must be >= 1")
        if not self.d:
            self.d = [self.spec.dim]
        if any(dv != self.spec.dim for dv in self.d):
            raise ConfigurationError("grid d must match the spec dimension")
        if self.estimator == "pure_dp" and any(dv > 0 for dv in self.delta):
            raise ConfigurationError("pure_dp requires delta = 0 everywhere in the grid")
        if self.estimator in ("hd_single", "hd_two_round") and any(dv <= 0 for dv in self.delta):
            raise ConfigurationError(f"{self.estimator} requires delta > 0")
        if self.estimator == "est1d" and self.spec.dim != 1:
            raise ConfigurationError("est1d requires a univariate spec")

    def grid_points(self) -> list:
        return [
            {"n": nv, "m": mv, "d": dv, "epsilon": ev, "delta": dlv, "alpha": av, "k": kv}
            for nv, mv, dv, ev, dlv, av, kv in itertools.product(
                self.n, self.m, self.d, self.epsilon, self.delta, self.alpha, self.k
            )
        ]

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        raw = json.loads(text)
        try:
            return cls(
                estimator=raw["estimator"],
                spec=SyntheticSpec.from_json(json.dumps(raw["spec"])),
                n=[int(v) for v in raw["n"]],
                m=[int(v) for v in raw["m"]],
                epsilon=[float(v) for v in raw["epsilon"]],
                delta=[float(v) for v in raw["delta"]],
                alpha=[float(v) for v in raw["alpha"]],
                k=[float(v) for v in raw["k"]],
                trials=int(raw["trials"]),
                seed=int(raw["seed"]),
                output_path=raw["output_path"],
                d=[int(v) for v in raw.get("d", [])],
                beta=float(raw.get("beta", 0.1)),
                range_R=float(raw.get("range_R", 2.0)),
            )
        except KeyError as exc:
            raise ConfigurationError(f"experiment config missing key {exc}") from exc


# One row per (grid point, trial); summaries reuse the schema with
# row_type = "summary" and the aggregate columns filled.
TrialRow = [
    "schema_version",
    "row_type",
    "estimator",
    "family",
    "n",
    "m",
    "d",
    "epsilon",
    "delta",
    "alpha",
    "k",
    "trial",
    "trial_seed",
    "estimate",
    "l2_error",
    "rho",
    "rho1",
    "rho2",
    "mu_coarse",
    "median_error",
    "success_rate",
    "wall_time_ms",
]


def _row(config: ExperimentConfig, point: dict, row_type: str, **fields) -> dict:
    """A CSV row: the grid-point columns, then ``fields``; the rest blank."""
    row = dict.fromkeys(TrialRow, "")
    row.update(
        schema_version=CSV_SCHEMA_VERSION,
        row_type=row_type,
        estimator=config.estimator,
        family=config.spec.family,
        n=point["n"],
        m=point["m"],
        d=point["d"],
        epsilon=repr(point["epsilon"]),
        delta=repr(point["delta"]),
        alpha=repr(point["alpha"]),
        k=repr(point["k"]),
    )
    row.update(fields)
    return row


def _run_one(config: ExperimentConfig, point: dict, trial: int) -> dict:
    trial_seed = derive_seed(config.seed, stable_hash(point), trial)
    spec = SyntheticSpec(
        family=config.spec.family, mean=config.spec.mean, k=point["k"], extra=config.spec.extra
    )
    data = sample_dataset(spec, point["n"], point["m"], derive_seed(trial_seed, 0))
    params = ProblemParams(
        k=point["k"], alpha=point["alpha"], beta=config.beta, range_R=config.range_R
    )
    budget = PrivacyBudget(point["epsilon"], point["delta"])
    try:
        report = ESTIMATORS[config.estimator](data, budget, params, derive_seed(trial_seed, 1))
    except EstimationFailedError:
        # A legitimate outcome at small n (e.g. all stability-histogram
        # buckets suppressed): record an infinite-error trial.
        return _row(
            config,
            point,
            "trial",
            trial=trial,
            trial_seed=trial_seed,
            l2_error=repr(math.inf),
            wall_time_ms="0.000",
        )
    error = float(np.linalg.norm(report.estimate - spec.mean_vector()))
    stages = {
        key: repr(report.params[key]) for key in ("rho", "rho1", "rho2") if key in report.params
    }
    if "mu_coarse" in report.params:
        stages["mu_coarse"] = _vec(report.params["mu_coarse"])
    return _row(
        config,
        point,
        "trial",
        trial=trial,
        trial_seed=trial_seed,
        estimate=_vec(report.estimate),
        l2_error=repr(error),
        wall_time_ms=f"{report.wall_time_ms:.3f}",
        **stages,
    )


def run_experiment(config: ExperimentConfig, threads: int | None = None) -> str:
    """Run the full grid x trials cross product and write the CSV.

    Returns the output path.  A summary row (median error, success@alpha)
    follows each grid point's trials.  ``resolve_threads(threads)`` workers
    take trials from one queue in grid order; the calling thread is worker 0,
    so one worker runs every trial in the caller, in grid order.  The first
    exception stops the workers from starting further trials and propagates.
    """
    points = config.grid_points()
    errors = [[] for _ in points]
    queue = [(i, trial) for i in range(len(points)) for trial in range(config.trials)]
    queue.reverse()  # pop() takes trials in grid order
    failures = []
    lock = threading.Lock()
    with open(config.output_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=TrialRow, lineterminator="\n")
        writer.writeheader()

        def work() -> None:
            while True:
                with lock:
                    if not queue:
                        return
                    i, trial = queue.pop()
                point = points[i]
                try:
                    row = _run_one(config, point, trial)
                except BaseException as exc:  # re-raised by the caller below
                    with lock:
                        queue.clear()
                        failures.append(exc)
                    return
                with lock:
                    writer.writerow(row)
                    errors[i].append(float(row["l2_error"]))
                    if len(errors[i]) == config.trials:
                        success = sum(1 for e in errors[i] if e <= point["alpha"]) / len(errors[i])
                        summary = _row(
                            config,
                            point,
                            "summary",
                            median_error=repr(float(np.median(errors[i]))),
                            success_rate=repr(success),
                        )
                        writer.writerow(summary)
                    fh.flush()

        helpers = [threading.Thread(target=work) for _ in range(resolve_threads(threads) - 1)]
        for helper in helpers:
            helper.start()
        try:
            work()
        finally:
            # Whatever ends the caller's share (an interrupt included), the
            # helpers start no further trial and finish before the file closes.
            with lock:
                queue.clear()
            for helper in helpers:
                helper.join()
    if failures:
        raise failures[0]
    return config.output_path


@dataclass
class TailbenchConfig:
    """Tail-bound verification sweep: families x (m, k, d) x bound names."""

    specs: list  # SyntheticSpec per family instance
    m: list
    bounds: list  # subset of {heavytail, berry_esseen, highd}
    trials: int
    seed: Seed
    output_path: str
    grid_points_per_window: int = 12

    def __post_init__(self):
        for b in self.bounds:
            if b not in ("heavytail", "berry_esseen", "highd"):
                raise ConfigurationError(f"unknown bound {b!r}")
        if self.trials < 100_000:
            raise ConfigurationError("tailbench needs trials >= 1e5")

    @classmethod
    def from_json(cls, text: str) -> "TailbenchConfig":
        raw = json.loads(text)
        try:
            specs = [SyntheticSpec.from_json(json.dumps(s)) for s in raw["specs"]]
            return cls(
                specs=specs,
                m=[int(v) for v in raw["m"]],
                bounds=list(raw["bounds"]),
                trials=int(raw["trials"]),
                seed=int(raw["seed"]),
                output_path=raw["output_path"],
                grid_points_per_window=int(raw.get("grid_points_per_window", 12)),
            )
        except KeyError as exc:
            raise ConfigurationError(f"tailbench config missing key {exc}") from exc


TAILBENCH_COLUMNS = [
    "schema_version",
    "family",
    "m",
    "k",
    "d",
    "t",
    "empirical",
    "stderr",
    "bound_name",
    "bound_value",
    "C_cal",
    "valid_window",
    "pass",
]


def run_tailbench(config: TailbenchConfig, threads: int | None = None) -> str:
    """Evaluate empirical tails against calibrated bounds over the sweep.

    One Monte Carlo sample batch per (spec, m, mode) serves the t-grids of
    every bound that applies to it.  Out-of-window t values are flagged in
    the valid_window column, never dropped.  "pass" is 1 when the bound
    dominates the tail (empirical + 3 stderr <= bound), 0 when the tail
    exceeds it (empirical - 3 stderr > bound), and empty when the run cannot
    resolve the two, e.g. 0 hits whose 3 stderr band is wider than the bound.
    Runs serially: ``threads`` is accepted and ignored.
    """
    rows = []
    for spec, m in itertools.product(config.specs, config.m):
        d = spec.dim
        # heavytail and berry_esseen are univariate, highd multivariate;
        # heavytail needs k >= 3.
        bounds = [
            b
            for b in config.bounds
            if (b == "highd") == (d > 1) and not (b == "heavytail" and spec.k < 3)
        ]
        if not bounds:
            continue
        grids = [
            tailbounds.acceptance_t_grid(b, m, spec.k, d, config.grid_points_per_window)
            for b in bounds
        ]
        mode = "one_sided" if d == 1 else "norm"
        run_seed = derive_seed(config.seed, stable_hash([spec.to_json(), m, mode]))
        tail = tailbounds.mc_tail(
            spec, m, d, np.concatenate(grids), config.trials, run_seed, mode=mode
        )
        start = 0
        for bound_name, grid in zip(bounds, grids):
            c_cal = tailbounds.FROZEN_CALIBRATION.get((spec.family, bound_name), 1.0)
            evaluator = tailbounds._BOUNDS[bound_name]
            for point in tail[start : start + len(grid)]:
                q = tailbounds.TailBoundQuery(m=m, k=spec.k, t=point.t, d=d, constant=c_cal)
                bv = evaluator(q)
                lo = point.empirical - 3 * point.std_error
                hi = point.empirical + 3 * point.std_error
                verdict = 1 if hi <= bv.value else 0 if lo > bv.value else ""
                rows.append(
                    {
                        "schema_version": CSV_SCHEMA_VERSION,
                        "family": spec.family,
                        "m": m,
                        "k": repr(spec.k),
                        "d": d,
                        "t": repr(point.t),
                        "empirical": repr(point.empirical),
                        "stderr": repr(point.std_error),
                        "bound_name": bound_name,
                        "bound_value": repr(bv.value),
                        "C_cal": repr(c_cal),
                        "valid_window": int(bv.valid),
                        "pass": verdict,
                    }
                )
            start += len(grid)
    with open(config.output_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=TAILBENCH_COLUMNS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    return config.output_path
