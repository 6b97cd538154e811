"""Span tracing from outside the program.

The tracer replaces each listed public function of dpmean with a wrapper, at
every dpmean module attribute that holds it, which is where its callers look
it up (``esthd_approx.clip_ball`` as well as ``clipping.clip_ball``).  Each
call records a span with its parent; a layer's self time is its span's
duration minus the part of that interval its child spans cover.  Spans stay
in memory and are reduced to per-operation figures when the run ends.

A function that is missing from the program (removed or renamed) is reported
as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from collections import Counter, defaultdict


class Span:
    __slots__ = ("name", "start", "end", "parent")

    def __init__(self, name: str, start: float, parent: "Span | None"):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent


class Tracer:
    """Collects spans and counts.

    Each thread keeps its own stack of open spans.  A span opened on a worker
    thread with nothing open on that thread takes the innermost span open on
    the main thread as its parent, so work a layer hands to a thread pool
    still counts as that layer's children.
    """

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._main_stack: list = []
        self._local = threading.local()

    def _stack(self) -> list:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            main = self._main_stack
            parent = main[-1] if main and stack is not main else None
        span = Span(name, time.perf_counter(), parent)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        stack.remove(span)
        self.spans.append(span)

    def count(self, name: str, value: float) -> None:
        self.counts[name] += value


def covered_length(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    clipped = sorted((max(s, start), min(e, end)) for s, e in intervals)
    total = 0.0
    cur_s = cur_e = None
    for s, e in clipped:
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


class SpanSummary:
    """Per-name totals over a list of finished spans."""

    def __init__(self, spans):
        children = defaultdict(list)
        for span in spans:
            if span.parent is not None:
                children[id(span.parent)].append(span)
        self.calls = Counter()
        self.duration = defaultdict(float)
        self.self_time = defaultdict(float)
        self.child_time = defaultdict(float)
        for span in spans:
            kids = children.get(id(span), [])
            dur = span.end - span.start
            self.calls[span.name] += 1
            self.duration[span.name] += dur
            self.self_time[span.name] += dur - covered_length(
                span.start, span.end, ((k.start, k.end) for k in kids)
            )
            self.child_time[span.name] += sum(k.end - k.start for k in kids)


# Counters attached to a wrapped call: fn(bound_arguments, result) -> {name: value}.
def _rows(args, result):
    return {"cli.read_dataset_csv.rows": result.values.shape[0] * result.values.shape[1]}


def _sample_draws(args, result):
    return {"core.sample_dataset.draws": result.values.size}


def _batch_draws(args, result):
    return {"core.sample_batch_means.draws": result.size * args["m"]}


def _copied(args, result):
    return {"core.PersonDataset.copied_mb": args["self"].values.nbytes / 2**20}


def _comparisons(args, result):
    return {"esthd_pure.comparisons": len(result)}


def _trials(args, result):
    return {"tailbounds.mc_tail.trials": args["trials"]}


# (module, attribute, span name or None for a count-only hook, counter)
TARGETS = [
    ("cli", "read_dataset_csv", "cli.read_dataset_csv", _rows),
    ("core", "sample_dataset", "core.sample_dataset", _sample_draws),
    ("core", "sample_batch_means", "core.sample_batch_means", _batch_draws),
    ("core", "PersonDataset.__post_init__", "core.PersonDataset", _copied),
    ("core", "PersonDataset.person_means", "core.person_means", None),
    ("mechanisms", "private_histogram", "mechanisms.private_histogram", None),
    ("mechanisms", "exponential_mechanism", "mechanisms.exponential_mechanism", None),
    ("clipping", "clip_ball", "clipping.clip_ball", None),
    ("clipping", "trunc_1d", "clipping.trunc_1d", None),
    ("est1d", "range_estimator", "est1d.range_estimator", None),
    ("est1d", "fine_estimate_1d", "est1d.fine_estimate_1d", None),
    ("esthd_approx", "coarse_estimate_hd", "esthd_approx.coarse_estimate_hd", None),
    ("esthd_approx", "clip_and_noise", "esthd_approx.clip_and_noise", None),
    ("esthd_approx", "estimate_two_round", "esthd_approx.estimate_two_round", None),
    ("esthd_approx", "estimate_single_round", "esthd_approx.estimate_single_round", None),
    ("esthd_pure", "score_candidate", "esthd_pure.score_candidate", None),
    ("esthd_pure", "local_cover", None, _comparisons),
    ("esthd_pure", "fine_est_pure", "esthd_pure.fine_est_pure", None),
    ("esthd_pure", "estimate_pure_full", "esthd_pure.estimate_pure_full", None),
    ("tailbounds", "mc_tail", "tailbounds.mc_tail", _trials),
    ("harness", "run_experiment", "harness.run_experiment", None),
    ("harness", "run_tailbench", "harness.run_tailbench", None),
]


def _counting(scores, tracer: Tracer):
    for item in scores:
        tracer.count("mechanisms.exponential_mechanism.candidates", 1)
        yield item


def _wrap(fn, tracer: Tracer, span_name, counter):
    sig = inspect.signature(fn) if counter is not None else None
    counts_candidates = span_name == "mechanisms.exponential_mechanism"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if counts_candidates:
            if args:
                args = (_counting(args[0], tracer),) + args[1:]
            else:
                kwargs["scores"] = _counting(kwargs["scores"], tracer)
        span = tracer.open(span_name) if span_name else None
        try:
            result = fn(*args, **kwargs)
        finally:
            if span is not None:
                tracer.close(span)
        if counter is not None:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            for name, value in counter(bound.arguments, result).items():
                tracer.count(name, value)
        return result

    return wrapper


def install(tracer: Tracer):
    """Wrap every target; return (restore, absent).

    ``restore()`` puts the original functions back; ``absent`` names the
    targets the program no longer has.
    """
    homes = {}
    for module_name in dict.fromkeys(target[0] for target in TARGETS):
        try:
            homes[module_name] = importlib.import_module(f"dpmean.{module_name}")
        except ImportError:
            pass
    modules = [mod for name, mod in list(sys.modules.items())
               if mod is not None and name.split(".")[0] == "dpmean"]
    patched, absent = [], []
    for module_name, attr, span_name, counter in TARGETS:
        owner_name, _, name = attr.rpartition(".")
        owner = homes.get(module_name)
        if owner is not None and owner_name:
            owner = getattr(owner, owner_name, None)
        original = getattr(owner, name, None)
        if original is None:
            absent.append(span_name or f"{module_name}.{attr}")
            continue
        wrapper = _wrap(original, tracer, span_name, counter)
        # A method is looked up on its class; a function wherever it was imported.
        for site in [owner] if owner_name else modules:
            for key, value in list(vars(site).items()):
                if value is original:
                    patched.append((site, key, original))
                    setattr(site, key, wrapper)

    def restore():
        for site, key, original in reversed(patched):
            setattr(site, key, original)

    return restore, absent
