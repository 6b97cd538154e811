"""Benchmark runner for dpmean.

    python3 perfbench/run.py --workload approx_sweep --seed 1 --seconds 20 --trace 0

runs one workload and prints, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``.  ``--workload all`` runs every workload once and prints a
table.  ``--steady N`` runs each chosen workload under seeds 1..N and prints
each end-to-end metric's median and quartiles against its bound.

Run it from a checkout: it imports dpmean from ``src/`` next to this
directory and exits 2 when that is missing.  Files it writes go under
``.perfbench_work/`` in the checkout, and each run deletes its own there
when it ends.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import metrics
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 170.0

# Pinned for every workload process: BLAS runs one thread, and dpmean's own
# thread count comes only from the explicit arguments the workloads pass.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def pinned_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "DPMEAN_THREADS"}
    env.update(PINNED_ENV)
    return env


def _mono() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    """Write the workload's inputs (untimed), run it in a fresh worker
    process and return the worker's result."""
    deadline = time.monotonic() + DEADLINE_S
    workdir = ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workloads.make_inputs(name, seed, workdir)
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace), "--workdir", str(workdir),
               "--t0"]
        proc = subprocess.run(cmd + [repr(_mono())], stdout=subprocess.PIPE, text=True,
                              env=pinned_env(), cwd=ROOT, timeout=deadline - time.monotonic())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{name} worker exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _check_root() -> None:
    if not (ROOT / "src" / "dpmean" / "__init__.py").is_file():
        print(f"error: no dpmean sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        sys.exit(2)


def _summary_line(name: str, seed: int, result: dict) -> str:
    """One stderr line per run; traced runs report ops_per_s here too, which
    is how the tracing overhead is read."""
    parts = [f"{k}={result['metrics'][k]['value']:.6g} {unit}"
             for k, (unit, _, _) in metrics.END_TO_END.items()
             if k in result["metrics"] and k != "ops_per_s"]
    return (f"[{name} seed={seed}] correct={result['correct']} attempted={result['attempted']} "
            f"failed={result['failed']} passes={result['passes']} wall={result['wall_s']:.2f}s "
            f"setup_probes={result['setup_probes']} "
            f"ops_per_s={result['ops_per_s']:.6g} median_l2_error={result['median_l2_error']!r} "
            + " ".join(parts))


def steady(names, runs: int, seconds: float) -> int:
    """Run each workload under seeds 1..runs; print quartiles against bounds."""
    ok = True
    report = {}
    for name in names:
        results = []
        for seed in range(1, runs + 1):
            try:
                result = run_workload(name, seed, seconds, 0)
            except Exception as exc:  # noqa: BLE001 - report the seed, go on with the rest
                print(f"{name} seed={seed}: no result: {exc!r}")
                ok = False
                continue
            print(_summary_line(name, seed, result), file=sys.stderr)
            ok &= result["correct"]
            results.append(result)
        if len(results) < 2:
            print(f"{name}: {len(results)} results, too few for quartiles")
            ok = False
            continue
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"{name}: {runs} runs, correct={all(r['correct'] for r in results)}, "
              f"failed shares={sorted(shares)}")
        report[name] = {}
        for metric, (unit, _, bound) in metrics.END_TO_END.items():
            values = [r["metrics"][metric]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            steady_ok = spread <= bound
            ok &= steady_ok
            report[name][metric] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
            print(f"  {metric:<14} {unit:<4} median={med:<12.6g} q1={q1:<12.6g} q3={q3:<12.6g} "
                  f"spread={spread:.4f} bound={bound} {'ok' if steady_ok else 'OVER BOUND'}")
    print(json.dumps(report))
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=["all", *workloads.WORKLOADS])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steady", type=int, metavar="RUNS", default=0,
                    help="run each workload under seeds 1..RUNS and report spreads")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    _check_root()
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if args.steady:
        return steady(names, args.steady, args.seconds)

    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, args.trace)
        print(_summary_line(name, args.seed, results[name]), file=sys.stderr)
    if len(names) == 1:
        result = results[names[0]]
        final = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        for name, result in results.items():
            print(f"{name}: attempted={result['attempted']} failed={result['failed']} "
                  f"correct={result['correct']}")
            for metric, v in result["metrics"].items():
                print(f"  {metric:<44} {v['value']:<14.6g} {v['unit']}")
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
