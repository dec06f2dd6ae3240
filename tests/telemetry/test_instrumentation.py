"""End-to-end: the instrumented stack feeding the telemetry plane.

Runs a focused quick-scale wear study with telemetry enabled and checks the
acceptance surface: sane ``intents_injected_total`` and
``anr_watchdog_latency_ms`` series, a span tree nesting study → campaign →
package → component with no span dropped, the Prometheus/JSONL exports,
and the ``dumpsys telemetry`` shell surface.
"""

import pytest

from repro import telemetry
from repro.experiments.config import QUICK
from repro.experiments.wear_experiment import run_wear_study
from repro.qgj.campaigns import Campaign
from repro.qgj.fuzzer import FuzzConfig, FuzzerLibrary
from repro.qgj.ui_fuzzer import MutationMode, QGJUi
from repro.telemetry.exporters import (
    parse_jsonl_spans,
    render_prometheus,
    spans_to_jsonl,
)
from repro.wear.device import WearDevice

FOCUS_PACKAGES = (
    "com.google.android.apps.fitness",  # crashes in every campaign
    "com.cardiowatch.wear",  # hangs (feeds the ANR-latency histogram)
    "com.runmate.wear",  # well-behaved
)


@pytest.fixture(scope="module")
def instrumented_study():
    """Focused wear study under telemetry; artifacts captured while live."""
    with telemetry.session(heartbeat_every=500) as t:
        beats = []
        t.progress.add_listener(beats.append)
        study = run_wear_study(QUICK, packages=FOCUS_PACKAGES)
        artifacts = {
            "study": study,
            "t": t,
            "beats": beats,
            "prom": render_prometheus(t.metrics),
            "jsonl": spans_to_jsonl(t.tracer),
        }
        # Study results hold no device; any device's shell reads the live
        # handle, so the probe is built after the exports are captured.
        probe = WearDevice("dumpsys-probe")
        artifacts["dumpsys"] = probe.adb.shell("dumpsys telemetry")
        artifacts["dumpsys_prom"] = probe.adb.shell("dumpsys telemetry --prometheus")
        return artifacts


class TestStudyMetrics:
    def test_intents_counter_matches_summary(self, instrumented_study):
        study, t = instrumented_study["study"], instrumented_study["t"]
        intents = t.metrics.get("intents_injected_total")
        assert intents is not None
        assert intents.total() == study.intents_sent
        # Every campaign and every focused package shows up as a series.
        for campaign in Campaign:
            assert intents.total_where(campaign=campaign.value) > 0
        for package in FOCUS_PACKAGES:
            assert intents.total_where(package=package) > 0

    def test_outcome_labels_reconcile_with_results(self, instrumented_study):
        study, t = instrumented_study["study"], instrumented_study["t"]
        intents = t.metrics.get("intents_injected_total")
        summary = study.summary
        assert intents.total_where(outcome="crash") == summary.total_crashes_seen
        assert (
            intents.total_where(outcome="security_exception")
            == summary.total_security_exceptions
        )

    def test_anr_latency_histogram_fed_by_watchdog(self, instrumented_study):
        t = instrumented_study["t"]
        anr = t.metrics.get("anr_watchdog_latency_ms")
        assert anr is not None
        assert anr.total_count() > 0
        # Only the hang app should be blocking the main thread.
        labels = {labels["package"] for labels, _ in anr.samples()}
        assert "com.cardiowatch.wear" in labels
        # The watchdog only fires past the 5 s ANR window.
        for _, child in anr.samples():
            assert child.sum / child.count > 5000

    def test_am_and_logcat_planes_populated(self, instrumented_study):
        t = instrumented_study["t"]
        dispatches = t.metrics.get("am_dispatches_total")
        assert dispatches.total() >= instrumented_study["study"].intents_sent
        assert t.metrics.get("logcat_records_written_total").total() > 0
        assert t.metrics.get("logcat_buffer_records") is not None


class TestSpanTree:
    def test_component_spans_nest_to_the_study_root(self, instrumented_study):
        rows = parse_jsonl_spans(instrumented_study["jsonl"])
        by_id = {row["span_id"]: row for row in rows}
        components = [row for row in rows if row["name"] == "component"]
        assert components
        for component in components:
            chain = []
            cursor = component
            while cursor["parent_id"] is not None:
                cursor = by_id[cursor["parent_id"]]
                chain.append(cursor["name"])
            assert chain == ["package", "campaign", "study"]

    def test_spans_carry_both_clocks(self, instrumented_study):
        rows = parse_jsonl_spans(instrumented_study["jsonl"])
        for row in rows:
            assert row["end_wall_s"] >= row["start_wall_s"]
            assert row["start_virtual_ms"] is not None
            assert row["end_virtual_ms"] >= row["start_virtual_ms"]

    def test_span_buffer_bounded(self, instrumented_study):
        t = instrumented_study["t"]
        assert len(t.tracer) <= 8192
        # One span per component: the whole study fits the ring.
        assert t.tracer.dropped == 0
        assert not any(span.name == "injection" for span in t.tracer.spans())


class TestExpositionSurfaces:
    def test_prometheus_snapshot_contains_required_series(self, instrumented_study):
        prom = instrumented_study["prom"]
        assert "# TYPE intents_injected_total counter" in prom
        assert 'intents_injected_total{campaign="A"' in prom
        assert "# TYPE anr_watchdog_latency_ms histogram" in prom
        assert "anr_watchdog_latency_ms_bucket" in prom
        assert "anr_watchdog_latency_ms_count" in prom

    def test_dumpsys_telemetry(self, instrumented_study):
        result = instrumented_study["dumpsys"]
        assert result.ok
        assert "TELEMETRY" in result.output
        assert "intents_injected_total" in result.output
        assert "anr_watchdog_latency_ms" in result.output
        assert "spans:" in result.output

    def test_dumpsys_prometheus_flag(self, instrumented_study):
        result = instrumented_study["dumpsys_prom"]
        assert result.ok
        assert "# TYPE intents_injected_total counter" in result.output

    def test_heartbeats_fired(self, instrumented_study):
        beats = instrumented_study["beats"]
        assert beats
        # Ticks batch at the fuzzer's pacing boundary, so a snapshot fires
        # on (not exactly at) each every-Nth crossing: successive beats
        # land in strictly increasing 500-injection windows.
        windows = [beat.injections // 500 for beat in beats]
        assert all(b > a for a, b in zip(windows, windows[1:]))
        assert all(beat.injections >= 500 for beat in beats)
        assert beats[-1].anrs > 0
        assert beats[-1].virtual_rate is not None


class TestDumpsysShell:
    def test_service_listing(self):
        watch = WearDevice("w")
        result = watch.adb.shell("dumpsys -l")
        assert result.ok
        assert "telemetry" in result.output

    def test_disabled_message(self):
        watch = WearDevice("w")
        result = watch.adb.shell("dumpsys telemetry")
        assert result.ok
        assert "disabled" in result.output.lower()

    def test_unknown_service(self):
        watch = WearDevice("w")
        result = watch.adb.shell("dumpsys meminfo")
        assert not result.ok
        assert "Can't find service" in result.output


class TestZeroOverheadDiscipline:
    def test_disabled_run_records_nothing(self):
        from repro.apps.catalog import build_wear_corpus

        corpus = build_wear_corpus(seed=2018)
        watch = WearDevice("plain")
        corpus.install(watch)
        fuzzer = FuzzerLibrary(watch)
        info = watch.packages.get_package("com.runmate.wear").activities()[1]
        result = fuzzer.fuzz_component(
            info, Campaign.B, FuzzConfig(max_intents_per_component=20)
        )
        assert result.sent == 20
        t = telemetry.get()
        assert not t.enabled
        assert len(t.metrics) == 0
        assert len(t.tracer) == 0

    def test_results_identical_with_and_without_telemetry(self):
        from repro.apps.catalog import build_wear_corpus
        from repro.qgj.campaigns import generate

        def run(explicit_intents=False):
            corpus = build_wear_corpus(seed=2018)
            watch = WearDevice("twin")
            corpus.install(watch)
            fuzzer = FuzzerLibrary(watch)
            info = watch.packages.get_package("com.runmate.wear").activities()[1]
            config = FuzzConfig()
            intents = None
            if explicit_intents:
                intents = generate(Campaign.B, seed=config.seed, component=info.name)
            result = fuzzer.fuzz_component(info, Campaign.B, config, intents=intents)
            return result, watch.clock.now_ms()

        plain = run()
        assert plain[0].sent == 141
        assert run(explicit_intents=True) == plain
        for session in ({}, {"profile": True}):
            with telemetry.session(**session):
                assert run() == plain, session
                assert run(explicit_intents=True) == plain, session


class TestOtherPlanes:
    def test_ui_fuzzer_and_monkey_counters(self):
        from repro.apps.catalog import build_wear_corpus

        corpus = build_wear_corpus(seed=2018)
        watch = WearDevice("ui")
        corpus.install(watch)
        with telemetry.session() as t:
            results = QGJUi(watch, seed=25).run(
                event_count=120, modes=(MutationMode.RANDOM,)
            )
            generated = t.metrics.get("monkey_events_generated_total")
            injected = t.metrics.get("ui_events_injected_total")
            assert generated.total() == 120
            assert injected.total() == results[MutationMode.RANDOM].injected_events
            crashes = t.metrics.get("ui_crashes_total")
            assert crashes.total_where(mode=MutationMode.RANDOM) == pytest.approx(
                results[MutationMode.RANDOM].crashes
            )
