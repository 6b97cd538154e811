"""The benchmark's metric tables, read from ``BENCHMARK.json`` at the
repository root, and the reduction of a traced run's spans to per-layer
figures.
"""

from __future__ import annotations

import json
from pathlib import Path

_SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

# name -> (unit, better, bound): bound is the share of the parent's median by
# which the metric may worsen before a change counts as a regression.
END_TO_END = {m["name"]: (m["unit"], m["better"], m["bound"]) for m in _SPEC["end_to_end"]}

# name -> unit.  Per-operation figures unless the unit is a rate.
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}

# Rates divide a counted amount by the layer's own (self) time.
_RATE_COUNTS = {"rows_per_s": "rows", "draws_per_s": "draws"}


def per_layer(summary, counts, ops: int, median_l2_error: float) -> dict:
    """Per-layer figures from a traced run: per operation, or rates."""
    out = {}
    for name, unit in PER_LAYER.items():
        prefix, _, leaf = name.rpartition(".")
        if name == "output.median_l2_error":
            value = median_l2_error
        elif leaf == "self_ms":
            value = summary.self_time.get(prefix, 0.0) * 1e3 / ops
        elif leaf in ("calls", "constructions"):
            value = summary.calls.get(prefix, 0) / ops
        elif leaf in _RATE_COUNTS:
            busy = summary.self_time.get(prefix, 0.0)
            amount = counts.get(f"{prefix}.{_RATE_COUNTS[leaf]}", 0)
            value = amount / busy if busy > 0 else 0.0
        elif leaf == "concurrency":
            wall = summary.duration.get(prefix, 0.0)
            value = summary.child_time.get(prefix, 0.0) / wall if wall > 0 else 0.0
        else:
            value = counts.get(name, 0) / ops
        out[name] = {"value": float(value), "unit": unit}
    return out
