"""Experiment runner: seeded sweeps over (n, m, d, k, epsilon, delta, alpha)
grids, repeated trials, and CSV emission for both estimators and tail-bound
verification.

``ESTIMATORS`` is the one registry of estimators, each called as
``fn(data: PersonMeans, budget, params, seed) -> EstimateReport``; the sweep
and the CLI both dispatch through it.

Sweep trials run on ``core._run_on_workers`` and tailbench's Monte Carlo
chunks on it through ``sample_batch_means``, each with ``threads`` workers.
Per-trial seeds derive from (config seed, grid-point hash, trial index), so
row contents never depend on execution order.  Sweep rows are written
atomically as trials complete; with one worker, trials run in grid order and
the file itself is byte-identical across reruns except for the wall_time_ms
column.  Tailbench rows are byte-identical for any thread count.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import threading
from dataclasses import dataclass, field

import numpy as np

from . import esthd_approx, esthd_pure, est1d, tailbounds
from .core import (
    ConfigurationError,
    EstimationFailedError,
    ParameterError,
    PersonMeans,
    PrivacyBudget,
    ProblemParams,
    Seed,
    SyntheticSpec,
    _run_on_workers,
    config_errors,
    derive_seed,
    sample_batch_means,
    stable_hash,
    strict_float,
    strict_int,
)

__all__ = [
    "CSV_SCHEMA_VERSION",
    "ESTIMATORS",
    "ExperimentConfig",
    "TrialRow",
    "run_experiment",
    "TailbenchConfig",
    "run_tailbench",
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


def _check_seed(seed: Seed) -> None:
    if not (0 <= seed < 2**64):
        raise ConfigurationError(f"seed must fit in uint64, got {seed}")


def _vec(x) -> str:
    return ";".join(repr(float(v)) for v in np.atleast_1d(x))


@dataclass
class ExperimentConfig:
    """One estimator sweep: a parameter grid, a trial count, and a seed.

    Every grid axis needs a value, and each value is checked when the config
    is built, before any output is written."""

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
        _check_seed(self.seed)
        for axis in ("n", "m", "epsilon", "delta", "alpha", "k"):
            if not getattr(self, axis):
                raise ConfigurationError(f"grid {axis} needs at least one value")
        if min(self.n) < 1 or min(self.m) < 1:
            raise ConfigurationError("grid n and m must be >= 1")
        # ProblemParams and PrivacyBudget check each field on its own, so a
        # grid point passes iff each of its axis values does: every value is
        # checked once, beside the first value of the other axes.  Each trial
        # re-builds the spec at its grid k, so the spec is checked at each k.
        try:
            for kv in self.k:
                ProblemParams(kv, self.alpha[0], self.beta, self.range_R)
                SyntheticSpec(self.spec.family, self.spec.mean, kv, self.spec.extra)
            for av in self.alpha:
                ProblemParams(self.k[0], av, self.beta, self.range_R)
            for ev in self.epsilon:
                PrivacyBudget(ev, self.delta[0])
            for dv in self.delta:
                PrivacyBudget(self.epsilon[0], dv)
        except ParameterError as exc:
            raise ConfigurationError(f"grid: {exc}") from exc
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
        # est1d and pure_dp run est1d's coarse stage, and hd_single and
        # hd_two_round esthd_approx's; its bucket width shrinks with m and
        # must stay below range_R.
        m, d = min(self.m), self.spec.dim
        if self.estimator in ("est1d", "pure_dp"):
            width, formula = est1d.coarse_width(m), "8/sqrt(m)"
        else:
            r = esthd_approx.coarse_accuracy(d, m)
            width, formula = esthd_approx.coarse_width(r, d), "8 sqrt(d/m)/sqrt(d)"
        if width >= self.range_R:
            raise ConfigurationError(
                f"{self.estimator} needs the coarse bucket width {formula} below range_R = "
                f"{self.range_R}, got {width} at m = {m}"
            )

    def grid_points(self) -> list:
        return [
            {"n": nv, "m": mv, "d": dv, "epsilon": ev, "delta": dlv, "alpha": av, "k": kv}
            for nv, mv, dv, ev, dlv, av, kv in itertools.product(
                self.n, self.m, self.d, self.epsilon, self.delta, self.alpha, self.k
            )
        ]

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        with config_errors("experiment config"):
            raw = json.loads(text)
            return cls(
                estimator=raw["estimator"],
                spec=SyntheticSpec.from_json(json.dumps(raw["spec"])),
                n=[strict_int(v) for v in raw["n"]],
                m=[strict_int(v) for v in raw["m"]],
                epsilon=[strict_float(v) for v in raw["epsilon"]],
                delta=[strict_float(v) for v in raw["delta"]],
                alpha=[strict_float(v) for v in raw["alpha"]],
                k=[strict_float(v) for v in raw["k"]],
                trials=strict_int(raw["trials"]),
                seed=strict_int(raw["seed"]),
                output_path=raw["output_path"],
                d=[strict_int(v) for v in raw.get("d", [])],
                beta=strict_float(raw.get("beta", 0.1)),
                range_R=strict_float(raw.get("range_R", 2.0)),
            )


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
    means = sample_batch_means(spec, point["m"], point["n"], derive_seed(trial_seed, 0))
    data = PersonMeans(means, point["m"])
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


def run_experiment(config: ExperimentConfig, threads: int = 1) -> str:
    """Run the full grid x trials cross product and write the CSV.

    Returns the output path.  A summary row (median error, success@alpha)
    follows each grid point's trials.  The trials, in grid order, run on
    ``core._run_on_workers`` with ``threads`` workers.
    """
    if threads < 1:
        raise ConfigurationError(f"threads must be >= 1, got {threads}")
    points = config.grid_points()
    errors = [[] for _ in points]
    lock = threading.Lock()
    with open(config.output_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=TrialRow, lineterminator="\n")
        writer.writeheader()

        def run(task: int) -> None:
            i, trial = divmod(task, config.trials)
            point = points[i]
            row = _run_one(config, point, trial)
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

        _run_on_workers(len(points) * config.trials, threads, run)
    return config.output_path


def _bounds_for(spec: SyntheticSpec, bounds: list) -> list:
    """The names in ``bounds`` that apply to ``spec``: heavytail and
    berry_esseen are univariate, highd multivariate; heavytail needs k >= 3."""
    return [
        b
        for b in bounds
        if (b == "highd") == (spec.dim > 1) and not (b == "heavytail" and spec.k < 3)
    ]


@dataclass
class TailbenchConfig:
    """Tail-bound verification sweep: families x (m, k, d) x bound names.

    Every (spec family, bound) pair must have a frozen calibration constant
    in ``tailbounds.FROZEN_CALIBRATION``; a pair without one has no verdict
    to give, so the config is rejected.  So is one without a spec, a bound or
    an m, with an m below 2, with no grid point per window, or where no bound
    applies to any spec (see ``_bounds_for``).
    """

    specs: list  # SyntheticSpec per family instance
    m: list
    bounds: list  # subset of tailbounds.BOUND_NAMES
    trials: int
    seed: Seed
    output_path: str
    grid_points_per_window: int = 12

    def __post_init__(self):
        if not self.specs or not self.bounds:
            raise ConfigurationError("tailbench needs at least one spec and one bound")
        # The t-grids take ln m, which is 0 at m = 1.
        if not self.m or min(self.m) < 2:
            raise ConfigurationError("tailbench needs m >= 2 at every grid value")
        if self.grid_points_per_window < 1:
            raise ConfigurationError("grid_points_per_window must be >= 1")
        _check_seed(self.seed)
        for b in self.bounds:
            if b not in tailbounds.BOUND_NAMES:
                raise ConfigurationError(f"unknown bound {b!r}")
        for spec in self.specs:
            for b in self.bounds:
                if (spec.family, b) not in tailbounds.FROZEN_CALIBRATION:
                    raise ConfigurationError(
                        f"no frozen calibration constant for ({spec.family!r}, {b!r})"
                    )
        if not any(_bounds_for(spec, self.bounds) for spec in self.specs):
            raise ConfigurationError(f"no bound in {self.bounds} applies to any spec")
        if self.trials < 100_000:
            raise ConfigurationError("tailbench needs trials >= 1e5")

    @classmethod
    def from_json(cls, text: str) -> "TailbenchConfig":
        with config_errors("tailbench config"):
            raw = json.loads(text)
            specs = [SyntheticSpec.from_json(json.dumps(s)) for s in raw["specs"]]
            return cls(
                specs=specs,
                m=[strict_int(v) for v in raw["m"]],
                bounds=list(raw["bounds"]),
                trials=strict_int(raw["trials"]),
                seed=strict_int(raw["seed"]),
                output_path=raw["output_path"],
                grid_points_per_window=strict_int(raw.get("grid_points_per_window", 12)),
            )


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


def run_tailbench(config: TailbenchConfig, threads: int = 1) -> str:
    """Evaluate empirical tails against calibrated bounds over the sweep.

    One Monte Carlo sample batch per (spec, m) serves the t-grids of
    every bound that applies to it.  Out-of-window t values are flagged in
    the valid_window column, never dropped.  "pass" is 1 when the bound
    dominates the tail (empirical + 3 stderr <= bound), 0 when the tail
    exceeds it (empirical - 3 stderr > bound), and empty when the run cannot
    resolve the two, e.g. 0 hits whose 3 stderr band is wider than the bound.
    The batches run one after another, each drawn by ``sample_batch_means``
    with ``threads`` workers; the file does not depend on the count.
    """
    rows = []
    for spec, m in itertools.product(config.specs, config.m):
        d = spec.dim
        bounds = _bounds_for(spec, config.bounds)
        if not bounds:
            continue
        grids = [
            tailbounds.acceptance_t_grid(b, m, spec.k, d, config.grid_points_per_window)
            for b in bounds
        ]
        # The batch seed is keyed by the name of the statistic mc_tail measures.
        statistic = "one_sided" if d == 1 else "norm"
        run_seed = derive_seed(config.seed, stable_hash([spec.to_json(), m, statistic]))
        tail = tailbounds.mc_tail(spec, m, np.concatenate(grids), config.trials, run_seed, threads)
        start = 0
        for bound_name, grid in zip(bounds, grids):
            c_cal = tailbounds.FROZEN_CALIBRATION[(spec.family, bound_name)]
            for point in tail[start : start + len(grid)]:
                value, valid = tailbounds.tail_bound(bound_name, m, spec.k, point.t, d)
                value *= c_cal
                lo = point.empirical - 3 * point.std_error
                hi = point.empirical + 3 * point.std_error
                verdict = 1 if hi <= value else 0 if lo > value else ""
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
                        "bound_value": repr(value),
                        "C_cal": repr(c_cal),
                        "valid_window": int(valid),
                        "pass": verdict,
                    }
                )
            start += len(grid)
    with open(config.output_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=TAILBENCH_COLUMNS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    return config.output_path
