"""Span nesting, dual-clock stamping, and ring-buffer bounding."""

import pytest

from repro.android.clock import Clock
from repro.telemetry.trace import NoopTracer, Tracer


class TestNesting:
    def test_parent_child_ids(self):
        tracer = Tracer()
        with tracer.span("campaign") as outer:
            with tracer.span("package") as mid:
                with tracer.span("component") as inner:
                    pass
        assert outer.parent_id is None
        assert mid.parent_id == outer.span_id
        assert inner.parent_id == mid.span_id

    def test_siblings_share_parent(self):
        tracer = Tracer()
        with tracer.span("package") as parent:
            with tracer.span("a") as a:
                pass
            with tracer.span("b") as b:
                pass
        assert a.parent_id == parent.span_id
        assert b.parent_id == parent.span_id

    def test_finished_order_is_close_order(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        assert [s.name for s in tracer.spans()] == ["inner", "outer"]

    def test_open_depth(self):
        tracer = Tracer()
        assert tracer.open_depth == 0
        with tracer.span("x"):
            assert tracer.open_depth == 1
        assert tracer.open_depth == 0

    def test_span_closed_even_on_exception(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("x"):
                raise RuntimeError("boom")
        assert tracer.open_depth == 0
        assert len(tracer) == 1


class TestClocks:
    def test_virtual_stamps_from_tracer_clock(self):
        clock = Clock()
        tracer = Tracer(clock=clock)
        clock.sleep(100)
        with tracer.span("x") as span:
            clock.sleep(250)
        assert span.start_virtual_ms == 100
        assert span.end_virtual_ms == 350
        assert span.virtual_duration_ms == 250

    def test_per_span_clock_override(self):
        default, other = Clock(), Clock(start_ms=5000)
        tracer = Tracer(clock=default)
        with tracer.span("x", clock=other) as span:
            pass
        assert span.start_virtual_ms == 5000

    def test_no_clock_means_no_virtual_stamp(self):
        tracer = Tracer()
        with tracer.span("x") as span:
            pass
        assert span.start_virtual_ms is None
        assert span.virtual_duration_ms is None

    def test_wall_stamps_monotonic(self):
        tracer = Tracer()
        with tracer.span("x") as span:
            pass
        assert span.end_wall_s >= span.start_wall_s
        assert span.wall_duration_s >= 0

    def test_attributes(self):
        tracer = Tracer()
        with tracer.span("x", campaign="A") as span:
            span.set_attribute("outcome", "crash")
        assert span.attributes == {"campaign": "A", "outcome": "crash"}


class TestBounding:
    def test_ring_keeps_newest_and_counts_dropped(self):
        tracer = Tracer(capacity=3)
        for i in range(10):
            with tracer.span(f"s{i}"):
                pass
        assert len(tracer) == 3
        assert tracer.dropped == 7
        assert [s.name for s in tracer.spans()] == ["s7", "s8", "s9"]

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)


class TestNoopTracer:
    def test_noop_records_nothing(self):
        tracer = NoopTracer()
        with tracer.span("x", campaign="A") as span:
            span.set_attribute("k", "v")
        assert len(tracer) == 0
        assert tracer.spans() == []
        assert tracer.dropped == 0


class TestFuzzerSpans:
    def test_a_component_run_is_one_span_that_counts_what_it_sent(self):
        from repro import telemetry
        from repro.apps.catalog import build_wear_corpus
        from repro.qgj.campaigns import Campaign
        from repro.qgj.fuzzer import FuzzConfig, FuzzerLibrary
        from repro.wear.device import WearDevice

        watch = WearDevice("component-span")
        build_wear_corpus(seed=2018).install(watch)
        info = watch.packages.get_package("com.runmate.wear").activities()[1]
        with telemetry.session() as t:
            result = FuzzerLibrary(watch).fuzz_component(
                info, Campaign.B, FuzzConfig(max_intents_per_component=25)
            )
            (span,) = t.tracer.spans()
        assert result.sent == 25
        assert span.name == "component"
        # Attribute order is what the JSONL export writes.
        assert list(span.attributes) == ["component", "kind", "campaign", "sent"]
        assert span.attributes["sent"] == 25
        assert span.end_virtual_ms == watch.clock.now_ms()
