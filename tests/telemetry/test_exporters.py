"""Prometheus text exposition, JSONL trace round-trips, summary table."""

import json

from repro import telemetry
from repro.telemetry.exporters import (
    export_snapshot,
    parse_jsonl_spans,
    render_prometheus,
    render_summary,
    spans_to_jsonl,
)
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.trace import Tracer


def make_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    c = registry.counter("intents_injected_total", "Injected intents.", ("campaign",))
    c.labels(campaign="A").inc(3)
    c.labels(campaign="B").inc(1)
    h = registry.histogram("anr_watchdog_latency_ms", "ANR latency.", buckets=(100, 1000))
    h.observe(50)
    h.observe(5000)
    registry.gauge("logcat_buffer_records", "Buffered.").set(42)
    return registry


class TestPrometheus:
    def test_text_format(self):
        text = render_prometheus(make_registry())
        assert "# HELP intents_injected_total Injected intents.\n" in text
        assert "# TYPE intents_injected_total counter\n" in text
        assert 'intents_injected_total{campaign="A"} 3\n' in text
        assert 'intents_injected_total{campaign="B"} 1\n' in text
        assert "# TYPE anr_watchdog_latency_ms histogram\n" in text
        assert 'anr_watchdog_latency_ms_bucket{le="100"} 1\n' in text
        assert 'anr_watchdog_latency_ms_bucket{le="1000"} 1\n' in text
        assert 'anr_watchdog_latency_ms_bucket{le="+Inf"} 2\n' in text
        assert "anr_watchdog_latency_ms_sum 5050\n" in text
        assert "anr_watchdog_latency_ms_count 2\n" in text
        assert "# TYPE logcat_buffer_records gauge\n" in text
        assert "logcat_buffer_records 42\n" in text

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        registry.counter("c_total", "", ("p",)).labels(p='a"b\\c\nd').inc()
        text = render_prometheus(registry)
        assert r'c_total{p="a\"b\\c\nd"} 1' in text

    def test_empty_registry(self):
        assert render_prometheus(MetricsRegistry()) == ""


class TestJsonl:
    def test_round_trip(self):
        tracer = Tracer()
        with tracer.span("campaign", campaign="A"):
            with tracer.span("injection", seq=1):
                pass
        text = spans_to_jsonl(tracer)
        rows = parse_jsonl_spans(text)
        assert len(rows) == 2
        by_name = {row["name"]: row for row in rows}
        assert by_name["injection"]["parent_id"] == by_name["campaign"]["span_id"]
        assert by_name["injection"]["attributes"] == {"seq": 1}
        # Every line is standalone JSON.
        for line in text.splitlines():
            json.loads(line)


class TestSummaryAndSnapshot:
    def test_summary_lists_every_metric(self):
        with telemetry.session() as t:
            t.metrics.counter("intents_injected_total", "", ("campaign",)).labels(
                campaign="A"
            ).inc(7)
            t.metrics.histogram("anr_watchdog_latency_ms").observe(6000)
            with t.tracer.span("study"):
                pass
            text = render_summary(t)
        assert "intents_injected_total" in text
        assert "anr_watchdog_latency_ms" in text
        assert "n=1" in text
        assert "spans: 1 retained, 0 dropped, 0 open" in text

    def test_export_snapshot_writes_three_files(self, tmp_path):
        with telemetry.session() as t:
            t.metrics.counter("x_total").inc()
            with t.tracer.span("study"):
                pass
            written = export_snapshot(str(tmp_path), t)
        assert sorted(written) == ["metrics.prom", "summary.txt", "trace.jsonl"]
        assert (tmp_path / "metrics.prom").read_text().startswith("# TYPE x_total")
        rows = parse_jsonl_spans((tmp_path / "trace.jsonl").read_text())
        assert rows[0]["name"] == "study"
        assert "TELEMETRY" in (tmp_path / "summary.txt").read_text()


class TestValueFormatting:
    def test_nonfinite_values_use_prometheus_spellings(self):
        from repro.telemetry.exporters import _format_value

        assert _format_value(float("inf")) == "+Inf"
        assert _format_value(float("-inf")) == "-Inf"
        assert _format_value(float("nan")) == "NaN"

    def test_integral_floats_drop_the_point(self):
        from repro.telemetry.exporters import _format_value

        assert _format_value(3.0) == "3"
        assert _format_value(0.0) == "0"
        assert _format_value(2.5) == "2.5"

    def test_infinite_gauge_renders_scrapeable_text(self):
        registry = MetricsRegistry()
        registry.gauge("limit", "A limit.").labels().set(float("inf"))
        assert "limit +Inf\n" in render_prometheus(registry)

    def test_label_renderer_does_not_leak_extra_labels(self):
        """Regression: ``extra`` was a mutable default dict; one histogram
        render could poison every later label-less call."""
        from repro.telemetry.exporters import _render_labels

        before = _render_labels({"a": "1"})
        _render_labels({"a": "1"}, {"le": "5"})
        assert _render_labels({"a": "1"}) == before
        assert _render_labels({}) == ""


class TestProfileSurfaces:
    def test_export_snapshot_writes_collapsed_profile_only_under_profile(
        self, tmp_path
    ):
        from repro import telemetry as telemetry_mod
        from repro.telemetry.exporters import export_snapshot

        with telemetry_mod.session() as t:
            written = export_snapshot(str(tmp_path / "plain"), t)
        assert "profile.collapsed" not in written
        with telemetry_mod.session(profile=True) as t:
            t.profiler.enter("dispatch")
            t.profiler.exit()
            written = export_snapshot(str(tmp_path / "prof"), t)
        assert "profile.collapsed" in written
        text = (tmp_path / "prof" / "profile.collapsed").read_text()
        assert text.startswith("dispatch ")


class TestFleetSection:
    def test_non_fleet_summary_has_no_fleet_block(self):
        with telemetry.session() as t:
            assert "FLEET" not in render_summary(t)

    def test_fleet_block_renders_pairs_lanes_and_cohort_table(self):
        from repro.fleet.lane import (
            CRASHES_SITE,
            INTENTS_SENT_SITE,
            LANE_OCCUPANCY_SITE,
            PAIRS_ACTIVE_SITE,
            PAIRS_FINISHED_SITE,
        )

        with telemetry.session() as t:
            metrics = t.metrics
            CRASHES_SITE.bind(metrics, ("budget",)).inc(4)
            INTENTS_SENT_SITE.bind(metrics, ("budget",)).inc(1000)
            CRASHES_SITE.bind(metrics, ("aging",)).inc(1)
            INTENTS_SENT_SITE.bind(metrics, ("aging",)).inc(500)
            PAIRS_FINISHED_SITE.bind(metrics).inc(8)
            PAIRS_ACTIVE_SITE.bind(metrics).set(2)
            LANE_OCCUPANCY_SITE.bind(metrics, ("000",)).set(3)
            LANE_OCCUPANCY_SITE.bind(metrics, ("001",)).set(2)
            t.flush()
            text = render_summary(t)
        assert "FLEET" in text
        assert "pairs: 8 finished, 2 active" in text
        assert "lane occupancy (peak pairs): 000=3 001=2" in text
        # Cohort rows render in sorted name order.
        assert text.index("aging") < text.index("budget")
