"""One workload in a fresh interpreter: set-up, one untimed warm-up
operation, the timed passes, the output checks, and a JSON result on stdout.

Started by ``run.py``; not meant to be run by hand.  ``--t0`` is the
CLOCK_MONOTONIC reading taken just before this process was spawned, so a
set-up time covers interpreter start, importing dpmean and building the
workload's configs.  ``setup_s`` is the median of this process's own set-up
time and of set-up probes: fresh copies of this script with
``--setup-only``, started in groups before the timed phase, between passes
and after it.  Spreading the probes over the run makes them sample the same
stretch of host load as the timed passes; probe time is left out of the
timed phase.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
import types
from pathlib import Path

import metrics
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
PROBES_PER_GAP = 5


def _mono() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def import_program():
    """Import dpmean from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import dpmean
    from dpmean import cli, core, harness, tailbounds

    if Path(dpmean.__file__).resolve().parent != src / "dpmean":
        raise ImportError(f"dpmean imported from {dpmean.__file__}, not from {src}")
    return types.SimpleNamespace(cli=cli, core=core, harness=harness, tailbounds=tailbounds)


def setup_probe(args) -> float:
    """Set-up time of one fresh copy of this worker: spawn to ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--workdir", args.workdir,
           "--setup-only", "--t0"]
    proc = subprocess.run(cmd + [repr(_mono())], stdout=subprocess.PIPE, text=True, cwd=ROOT,
                          timeout=30)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def run_op(workload, pass_index: int, i: int):
    """(record or None, latency in seconds, failure message or None)."""
    cfg, call = workload.prepare(pass_index, i)
    t = time.perf_counter()
    try:
        result = call()
    except Exception:  # noqa: BLE001 - an operation that raises is counted, not fatal
        return None, time.perf_counter() - t, traceback.format_exc(limit=3)
    latency = time.perf_counter() - t
    try:
        return workload.collect(cfg, result), latency, None
    except workloads.OpFailed as exc:
        return None, latency, str(exc)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    dp = import_program()
    wl = workloads.WORKLOADS[args.workload](dp, args.seed, args.workdir)
    setup_s = _mono() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    warm, _, warm_error = run_op(wl, 0, 0)
    setup = [setup_s]

    def probe() -> float:
        """Run a group of set-up probes (none in a traced run); return its wall time."""
        t = time.perf_counter()
        if not args.trace:
            setup.extend(setup_probe(args) for _ in range(PROBES_PER_GAP))
        return time.perf_counter() - t

    probe()
    tracer = restore = None
    absent = []
    if args.trace:
        tracer = tracing.Tracer()
        restore, absent = tracing.install(tracer)

    records, latencies, failures = {}, [], []
    passes = 0
    paused = 0.0
    start, cpu0 = time.perf_counter(), time.process_time()
    while True:
        for i in range(wl.per_pass):
            record, latency, error = run_op(wl, passes, i)
            if record is None:
                failures.append(f"pass {passes} op {i}: {error}")
            else:
                records[passes, i] = record
                latencies.append(latency)
        passes += 1
        elapsed = time.perf_counter() - start - paused
        if elapsed + elapsed / passes > args.seconds:
            break
        paused += probe()
    wall, cpu = time.perf_counter() - start - paused, time.process_time() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if restore is not None:
        restore()
    probe()

    attempted = passes * wl.per_pass
    done = len(records)
    problems = wl.check(list(records.values()), attempted)
    if not records:
        problems.append("no operation completed")
    if warm is None:
        problems.append(f"warm-up failed: {warm_error}")
    elif (0, 0) in records and records[0, 0] != warm:
        problems.append("determinism: repeating operation 0 of pass 0 changed its output")
    errors = [e for (p, _), rec in records.items() if p == 0 for e in wl.errors(rec)]
    median_l2_error = statistics.median(errors) if errors else float("nan")

    if args.trace:
        summary = tracing.SpanSummary(tracer.spans)
        values = metrics.per_layer(summary, tracer.counts, max(done, 1), median_l2_error)
    else:
        values = {
            "ops_per_s": done / wall,
            "op_p50_ms": statistics.median(latencies) * 1e3 if latencies else float("nan"),
            "cpu_ms_per_op": cpu * 1e3 / max(done, 1),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(setup),
        }
        values = {k: {"value": v, "unit": metrics.END_TO_END[k][0]} for k, v in values.items()}
    for line in failures[:3]:
        print(f"failed operation: {line}", file=sys.stderr)
    for line in problems:
        print(f"CHECK FAILED [{args.workload}] {line}", file=sys.stderr)
    if absent:
        print(f"absent from the program (reported as 0): {', '.join(absent)}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": values,
        "setup_probes": len(setup),
        "passes": passes,
        "wall_s": wall,
        "ops_per_s": done / wall,
        "median_l2_error": median_l2_error,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
