"""Tests of the benchmark's own code: the exact-tail formulas on known values,
the self-time arithmetic on nested spans, the tracer's wrapping, and the
workload names that BENCHMARK.json lists.

    python3 -m pytest perfbench/test_perfbench.py
"""

import json
import math
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import exact  # noqa: E402
import metrics  # noqa: E402
import tracing  # noqa: E402


class TestExactTails:
    def test_sigma_k(self):
        assert exact.gaussian_sigma_k(2.0) == pytest.approx(1.0, rel=1e-15)
        assert exact.gaussian_sigma_k(4.0) == pytest.approx(3 ** 0.25, rel=1e-15)

    def test_normal_tail_known_values(self):
        assert exact.normal_upper_tail(0.0) == 0.5
        assert exact.normal_upper_tail(1.959963984540054) == pytest.approx(0.025, rel=1e-12)
        assert exact.normal_upper_tail(-1.0) == pytest.approx(0.8413447460685429, rel=1e-14)

    def test_chi2_4_tail_known_values(self):
        assert exact.chi2_4_upper_tail(0.0) == 1.0
        # 95th and 99th percentiles of chi^2_4.
        assert exact.chi2_4_upper_tail(9.487729036781154) == pytest.approx(0.05, rel=1e-10)
        assert exact.chi2_4_upper_tail(13.276704135987622) == pytest.approx(0.01, rel=1e-10)

    def test_gaussian_mean_tail_scales_with_m(self):
        # One standard error of the m-sample mean is 1 / (sigma_k sqrt(m)).
        t = 1 / (exact.gaussian_sigma_k(4.0) * math.sqrt(64))
        assert exact.gaussian_mean_tail(t, 64, 1, 4.0) == pytest.approx(0.15865525393145707)
        assert exact.gaussian_mean_tail(2 * t, 64, 4, 4.0) == pytest.approx(
            math.exp(-2.0) * 3.0, rel=1e-12)

    def test_point_mass_tail_by_hand(self):
        lam, atom = exact.point_mass_params(0.02, 4.0)
        m = 3
        # One hit or more moves the mean up by at least atom (1/3 - lam).
        t = atom * (1 / 3 - lam) * (1 - 1e-9)
        assert exact.point_mass_mean_tail(t, m, 1, 4.0, 0.02) == pytest.approx(1 - (1 - lam) ** 3)
        # Two-sided: zero hits also deviate by atom * lam.
        t0 = min(atom * lam, atom * (1 / 3 - lam)) * (1 - 1e-9)
        assert exact.point_mass_mean_tail(t0, m, 4, 4.0, 0.02) == pytest.approx(1.0)
        assert exact.point_mass_mean_tail(10 * atom, m, 4, 4.0, 0.02) == 0.0

    def test_bounds_documented_values(self):
        assert exact.bound_value("berry_esseen", 100, 3.0, 0.5, 1, 1.0) == pytest.approx(8e-4)
        assert exact.bound_value("heavytail", 16, 4.0, 0.5, 1, 2.0) == pytest.approx(
            2 * (1 / (16**3 * 0.5**4) + math.exp(-16 * 0.25 / 12)))
        assert exact.bound_value("highd", 64, 4.0, 0.5, 4, 1.0) == pytest.approx(
            16 / (64**3 * 0.5**4) + math.exp(-64 * 0.25 / 4))
        with pytest.raises(ValueError):
            exact.bound_value("markov", 16, 4.0, 0.5, 1, 1.0)

    def test_score_and_wilson(self):
        assert exact.score_z(500, 1000, 0.5) == 0.0
        assert exact.score_z(1, 100_000, 1e-9) == pytest.approx(1.0, abs=1e-3)
        assert exact.wilson_halfwidth(0, 100_000) == pytest.approx(0.5 / 100_001)


def _span(name, start, end, parent=None):
    span = tracing.Span(name, start, parent)
    span.end = end
    return span


class TestSelfTime:
    def test_covered_length_merges_overlaps(self):
        assert tracing.covered_length(0, 10, [(1, 3), (2, 5), (7, 8)]) == 5
        assert tracing.covered_length(0, 10, []) == 0
        assert tracing.covered_length(2, 4, [(0, 3), (3.5, 9)]) == 1.5

    def test_nested_spans(self):
        root = _span("root", 0.0, 10.0)
        child_a = _span("a", 1.0, 4.0, root)
        grandchild = _span("g", 1.5, 2.0, child_a)
        child_b = _span("b", 6.0, 8.0, root)
        summary = tracing.SpanSummary([grandchild, child_a, child_b, root])
        assert summary.self_time["root"] == pytest.approx(5.0)
        assert summary.self_time["a"] == pytest.approx(2.5)
        assert summary.self_time["g"] == pytest.approx(0.5)
        assert summary.child_time["root"] == pytest.approx(5.0)
        assert summary.calls["a"] == 1

    def test_concurrent_children_counted_once(self):
        root = _span("root", 0.0, 4.0)
        kids = [_span("k", 0.0, 3.0, root), _span("k", 1.0, 3.0, root)]
        summary = tracing.SpanSummary(kids + [root])
        assert summary.self_time["root"] == pytest.approx(1.0)
        # Concurrency reads as child time over wall time.
        assert summary.child_time["root"] / summary.duration["root"] == pytest.approx(1.25)

    def test_worker_thread_span_adopts_main_parent(self):
        tracer = tracing.Tracer()
        outer = tracer.open("outer")

        def work():
            tracer.close(tracer.open("inner"))

        thread = threading.Thread(target=work)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()
        tracer.close(outer)
        inner = next(s for s in tracer.spans if s.name == "inner")
        assert inner.parent is outer


class TestInstall:
    def test_wraps_every_lookup_site_and_restores(self, monkeypatch):
        from dpmean import clipping, esthd_approx

        original = clipping.clip_ball
        monkeypatch.delattr(clipping, "trunc_1d")
        tracer = tracing.Tracer()
        restore, absent = tracing.install(tracer)
        try:
            assert esthd_approx.clip_ball is clipping.clip_ball
            assert clipping.clip_ball is not original
            assert "clipping.trunc_1d" in absent
            import numpy as np
            from dpmean.core import ClipBall

            clipping.clip_ball(np.array([3.0, 4.0]), ClipBall(np.zeros(2), 1.0))
        finally:
            restore()
        assert clipping.clip_ball is original and esthd_approx.clip_ball is original
        assert [s.name for s in tracer.spans] == ["clipping.clip_ball"]

    def test_per_layer_reports_every_metric(self):
        root = _span("harness.run_tailbench", 0.0, 2.0)
        kid = _span("tailbounds.mc_tail", 0.5, 1.5, root)
        values = metrics.per_layer(tracing.SpanSummary([kid, root]),
                                   {"tailbounds.mc_tail.trials": 200_000}, 2, 0.1)
        assert set(values) == set(metrics.PER_LAYER)
        assert values["tailbounds.mc_tail.trials"]["value"] == 100_000
        assert values["harness.run_tailbench.self_ms"]["value"] == pytest.approx(500.0)
        assert values["harness.run_tailbench.concurrency"]["value"] == pytest.approx(0.5)
        assert values["cli.read_dataset_csv.rows_per_s"]["value"] == 0.0


def test_benchmark_json_names_runnable_workloads():
    import workloads

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
