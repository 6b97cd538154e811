"""Command-line interface.

Subcommands: estimate (one dataset file -> one report), sweep (experiment
grid -> CSV), tailbench (tail-bound verification -> CSV) and lemma-checks.
Exit codes: 0 success, 2 validation/usage error, 1 runtime error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from decimal import Decimal

import numpy as np

from . import tailbounds
from .core import (
    ConfigurationError,
    EstimationFailedError,
    ParameterError,
    PersonDataset,
    PrivacyBudget,
    ProblemParams,
    config_errors,
    strict_float,
    strict_int,
)
from .harness import ESTIMATORS, ExperimentConfig, TailbenchConfig, run_experiment, run_tailbench

__all__ = ["main", "read_dataset_csv"]


class DatasetFormatError(ValueError):
    """Malformed dataset CSV; message carries the offending line number."""


def _sample_key(sample: str):
    """The sort key of a stripped sample id: numeric iff "-"? then decimal
    digits with at most one "."; exact values, and equal numbers hash alike,
    so 1 and Decimal("1.0") are one key.  Numbers sort before other ids."""
    digits = sample.removeprefix("-")
    if digits.isdecimal():
        return (0, int(sample))
    if digits.replace(".", "", 1).isdecimal():
        return (0, Decimal(sample))
    return (1, sample)


def _parse_fast(text: str, lines: list, d: int):
    """The data rows of ``lines`` as the (n, m, d) array ``read_dataset_csv``
    returns, parsed in one ``np.loadtxt`` call; None where the row loop must
    decide instead."""
    # loadtxt raises on a whitespace-only line, which the loop skips as blank
    data = [line for line in lines[1:] if line.strip()]
    # numpy strips U+001F around a number and float() does not; U+001C-1E
    # never reach a line, since splitlines() breaks on them
    if not data or "\x1f" in text:
        return None
    try:
        rows = np.loadtxt(
            data, delimiter=",", skiprows=0, comments=None, quotechar=None, ndmin=1,
            dtype=[("person", object), ("sample", object), ("x", np.float64, (d,))],
        )
    except ValueError:
        return None
    if len(rows) != len(data):
        return None
    people: dict = {}
    person = np.array([people.setdefault(p.strip(), len(people)) for p in rows["person"].tolist()])
    ids: dict = {}
    sample = np.array([ids.setdefault(s, len(ids)) for s in rows["sample"].tolist()])
    keys = [_sample_key(s.strip()) for s in ids]
    rank = {key: r for r, key in enumerate(sorted(set(keys)))}
    sample_rank = np.array([rank[key] for key in keys])[sample]
    counts = np.bincount(person)
    if counts.min() != counts.max():
        return None
    order = np.lexsort((sample_rank, person))
    ranks = sample_rank[order].reshape(len(people), -1)
    if (ranks[:, 1:] == ranks[:, :-1]).any():
        return None
    return rows["x"][order].reshape(len(people), -1, d)


def read_dataset_csv(path: str) -> PersonDataset:
    """Parse the dataset interchange format.

    Header ``person_id,sample_id,x1,...,xd``; every person must carry the
    same number of samples, and no person two samples with equal keys.
    Samples are ordered by sample_id within person, numerically and exactly
    when the id is a decimal number (so ``1`` and ``1.0`` are the same key,
    and no two distinct numbers are); people by first appearance.

    Every data row is parsed in one ``np.loadtxt`` call and ordered with one
    ``np.lexsort``.  A row loop decides instead, and writes every
    line-numbered error, when that parse defers: when loadtxt rejects a row
    or skips a non-blank one, when a value holds what ``float()`` reads but
    loadtxt does not (``1_5``, non-ASCII digits), or when sample counts are
    unequal or one person repeats a sample key.
    """
    with open(path, newline="") as fh:
        text = fh.read()
    lines = text.splitlines()
    if not lines:
        raise DatasetFormatError("line 1: empty dataset file")
    header = [h.strip() for h in lines[0].split(",")]
    if header[:2] != ["person_id", "sample_id"] or len(header) < 3:
        raise DatasetFormatError("line 1: header must be person_id,sample_id,x1,...,xd")
    for i, name in enumerate(header[2:], start=1):
        if name != f"x{i}":
            raise DatasetFormatError(f"line 1: expected column x{i}, found {name!r}")
    d = len(header) - 2
    values = _parse_fast(text, lines, d)
    if values is not None:
        return PersonDataset(values)

    people: dict = {}  # person -> {sample key: values}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != len(header):
            raise DatasetFormatError(
                f"line {lineno}: expected {len(header)} fields, found {len(fields)}"
            )
        person, sample = fields[0].strip(), fields[1].strip()
        try:
            xs = [float(v) for v in fields[2:]]
        except ValueError:
            raise DatasetFormatError(f"line {lineno}: non-numeric sample value") from None
        samples = people.setdefault(person, {})
        key = _sample_key(sample)
        if key in samples:
            raise DatasetFormatError(
                f"line {lineno}: person {person!r} repeats sample_id {sample!r}"
            )
        samples[key] = xs
    if not people:
        raise DatasetFormatError("line 2: no data rows")
    counts = {len(v) for v in people.values()}
    if len(counts) != 1:
        raise DatasetFormatError(
            f"line {len(lines)}: people have unequal sample counts {sorted(counts)}"
        )
    tensor = [[samples[key] for key in sorted(samples)] for samples in people.values()]
    return PersonDataset(np.asarray(tensor, dtype=np.float64).reshape(len(people), counts.pop(), d))


def _run_estimate(args) -> int:
    cfg = {}
    if args.config:
        with open(args.config) as fh, config_errors("estimate config"):
            cfg = json.load(fh)
            if not isinstance(cfg, dict):
                raise ConfigurationError("estimate config must be a JSON object")
    overrides = {
        "estimator": args.estimator,
        "epsilon": args.epsilon,
        "delta": args.delta,
        "k": args.k,
        "alpha": args.alpha,
        "beta": args.beta,
        "range_R": args.range_R,
        "seed": args.seed,
    }
    cfg.update({key: val for key, val in overrides.items() if val is not None})
    for required in ("estimator", "epsilon", "k", "alpha", "seed"):
        if cfg.get(required) is None:
            raise ConfigurationError(f"estimate config missing {required!r}")
    if cfg["estimator"] not in ESTIMATORS:
        raise ConfigurationError(f"unknown estimator {cfg['estimator']!r}")

    with config_errors("estimate config"):
        params = ProblemParams(
            k=strict_float(cfg["k"]),
            alpha=strict_float(cfg["alpha"]),
            beta=strict_float(cfg.get("beta", 0.1)),
            range_R=strict_float(cfg.get("range_R", 2.0)),
        )
        delta = cfg.get("delta")
        delta = 0.0 if delta is None else strict_float(delta)
        budget = PrivacyBudget(strict_float(cfg["epsilon"]), delta)
        seed = strict_int(cfg["seed"])
    data = read_dataset_csv(args.data).person_means()
    report = ESTIMATORS[cfg["estimator"]](data, budget, params, seed)
    text = report.to_json()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return 0


# The config-file subcommands: command -> (config class, runner).
_CONFIG_RUNS = {
    "sweep": (ExperimentConfig, run_experiment),
    "tailbench": (TailbenchConfig, run_tailbench),
}


def _run_config(args) -> int:
    config_class, runner = _CONFIG_RUNS[args.command]
    with open(args.config) as fh:
        config = config_class.from_json(fh.read())
    # replace() validates the overridden config again
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    if args.out:
        config = dataclasses.replace(config, output_path=args.out)
    path = runner(config, threads=args.threads)
    print(f"wrote {path}")
    return 0


def _run_lemma_checks(args) -> int:
    report = tailbounds.lemma_checks(args.seed if args.seed is not None else 7)
    print(report.summary())
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpmean", description="Person-level DP mean estimation toolkit"
    )
    sub = parser.add_subparsers(dest="command")

    p_est = sub.add_parser("estimate", help="estimate the mean of a dataset CSV")
    p_est.add_argument("--data", required=True, help="dataset CSV (person_id,sample_id,x1..xd)")
    p_est.add_argument("--config", help="JSON config with estimator settings")
    p_est.add_argument("--estimator", choices=ESTIMATORS)
    p_est.add_argument("--epsilon", type=float)
    p_est.add_argument("--delta", type=float)
    p_est.add_argument("--k", type=float)
    p_est.add_argument("--alpha", type=float)
    p_est.add_argument("--beta", type=float)
    p_est.add_argument("--range-R", dest="range_R", type=float)
    p_est.add_argument("--seed", type=int)
    p_est.add_argument("--out")

    for name, help_text, threads_help in (
        (
            "sweep",
            "run an experiment grid from a JSON config",
            "worker threads that run the trials, the calling thread among them (default: 1)",
        ),
        (
            "tailbench",
            "run tail-bound verification from a JSON config",
            "worker threads that draw each Monte Carlo batch, the calling thread among them "
            "(default: 1); the output does not depend on the count",
        ),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int)
        p.add_argument("--out")
        p.add_argument("--threads", type=int, default=1, help=threads_help)

    p_lemma = sub.add_parser("lemma-checks", help="run the lemma verification battery")
    p_lemma.add_argument("--seed", type=int)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage()
        return 2
    try:
        if args.command == "estimate":
            return _run_estimate(args)
        if args.command in _CONFIG_RUNS:
            return _run_config(args)
        return _run_lemma_checks(args)
    except (ConfigurationError, ParameterError, DatasetFormatError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (EstimationFailedError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
