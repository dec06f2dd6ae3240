"""Span nesting, dual-clock stamping, and ring-buffer bounding."""

import pytest

from repro.android.clock import Clock
from repro.telemetry.trace import NoopTracer, Tracer


class TestNesting:
    def test_parent_child_ids(self):
        tracer = Tracer()
        with tracer.span("campaign") as outer:
            with tracer.span("package") as mid:
                with tracer.span("injection") as inner:
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


class TestLeafFastPath:
    def test_record_leaf_matches_context_manager_span(self):
        clock = Clock()
        ctx, leaf = Tracer(clock=clock), Tracer(clock=clock)
        with ctx.span("injection", seq=1, outcome="delivered") as span:
            pass
        leaf.record_leaf(
            "injection",
            {"seq": 1, "outcome": "delivered"},
            span.start_wall_s,
            span.end_wall_s,
            span.start_virtual_ms,
            span.end_virtual_ms,
        )
        assert [s.to_dict() for s in leaf.spans()] == [span.to_dict()]

    def test_leaf_nests_under_the_open_span(self):
        tracer = Tracer()
        with tracer.span("component") as parent:
            tracer.record_leaf("injection", {"seq": 1}, 0.0, 1.0, None, None)
        (leaf, _) = tracer.spans()
        assert leaf.parent_id == parent.span_id

    def test_leaf_ring_evicts_and_counts(self):
        tracer = Tracer(capacity=3)
        for i in range(10):
            tracer.record_leaf("injection", {"seq": i}, 0.0, 1.0, None, None)
        assert len(tracer) == 3
        assert tracer.dropped == 7
        assert [s.attributes["seq"] for s in tracer.spans()] == [7, 8, 9]

    def test_inline_client_entry_materializes_like_record_leaf(self):
        # The fuzzer's telemetry recorder (repro.qgj.fuzzer._recording) is
        # the one inline client of the leaf ring: it appends compact tuples
        # directly instead of calling record_leaf.  This locks the entry
        # layout (and the materialized attribute order) to what record_leaf
        # produces, so the two paths cannot drift apart.
        from repro.qgj.fuzzer import _LEAF_KEYS

        reference, inline = Tracer(capacity=8), Tracer(capacity=8)
        for seq, outcome in ((1, "delivered"), (2, "security_exception")):
            reference.record_leaf(
                "injection",
                {"seq": seq, "outcome": outcome},
                1.5,
                2.5,
                100.0,
                200.0,
            )
            inline._finished.append(
                (
                    next(inline._ids),
                    None,
                    "injection",
                    _LEAF_KEYS,
                    1.5,
                    2.5,
                    100.0,
                    200.0,
                    seq,
                    outcome,
                )
            )
        ref_spans, inline_spans = reference.spans(), inline.spans()
        assert [s.to_dict() for s in ref_spans] == [s.to_dict() for s in inline_spans]
        # dict key order matters for byte-stable JSONL exports
        assert [list(s.attributes) for s in inline_spans] == [
            list(s.attributes) for s in ref_spans
        ]

    def test_fuzzer_injection_spans_carry_seq_and_outcome(self):
        from repro import telemetry
        from repro.apps.catalog import build_wear_corpus
        from repro.qgj.campaigns import Campaign
        from repro.qgj.fuzzer import FuzzConfig, FuzzerLibrary
        from repro.wear.device import WearDevice

        corpus = build_wear_corpus(seed=2018)
        watch = WearDevice("leaf")
        corpus.install(watch)
        fuzzer = FuzzerLibrary(watch)
        info = watch.packages.get_package("com.runmate.wear").activities()[1]
        with telemetry.session() as t:
            result = fuzzer.fuzz_component(
                info, Campaign.B, FuzzConfig(max_intents_per_component=25)
            )
            spans = [s for s in t.tracer.spans() if s.name == "injection"]
        assert result.sent == 25
        assert len(spans) == 25
        assert [list(s.attributes) for s in spans] == [["seq", "outcome"]] * 25
        assert [s.attributes["seq"] for s in spans] == list(range(1, 26))

    def test_fuzzer_inline_eviction_accounting(self):
        from repro import telemetry
        from repro.apps.catalog import build_wear_corpus
        from repro.qgj.campaigns import Campaign
        from repro.qgj.fuzzer import FuzzConfig, FuzzerLibrary
        from repro.wear.device import WearDevice

        corpus = build_wear_corpus(seed=2018)
        watch = WearDevice("leaf-evict")
        corpus.install(watch)
        fuzzer = FuzzerLibrary(watch)
        info = watch.packages.get_package("com.runmate.wear").activities()[1]
        with telemetry.session() as t:
            t.tracer._finished = type(t.tracer._finished)(maxlen=16)
            fuzzer.fuzz_component(
                info, Campaign.B, FuzzConfig(max_intents_per_component=50)
            )
            # 50 injections + 1 component span through a 16-slot ring
            assert len(t.tracer) == 16
            assert t.tracer.dropped == 35

    def test_eviction_accounting_counts_spans_appended_mid_loop(self):
        # The chaos plane appends `fault` spans while the component loop is
        # still appending inline injection records; every one of them is
        # either retained or counted as dropped, whatever the capacity.
        from repro import faults, telemetry
        from repro.apps.catalog import build_wear_corpus
        from repro.faults.plan import FaultPlan
        from repro.qgj.campaigns import Campaign
        from repro.qgj.fuzzer import FuzzConfig, FuzzerLibrary
        from repro.wear.device import WearDevice

        plan = FaultPlan(seed=3, binder_every_ms=1500.0, lmkd_every_ms=2500.0)

        def accounted(capacity):
            watch = WearDevice("leaf-chaos")
            build_wear_corpus(seed=2018).install(watch)
            info = watch.packages.get_package("com.runmate.wear").activities()[1]
            with faults.session(plan), telemetry.session(span_capacity=capacity) as t:
                FuzzerLibrary(watch).fuzz_component(info, Campaign.B, FuzzConfig())
                names = {s.name for s in t.tracer.spans()}
                return len(t.tracer) + t.tracer.dropped, t.tracer.dropped, names

        total, dropped, names = accounted(400)
        assert dropped == 0
        assert "fault" in names  # the plan really appended mid-loop
        small_total, small_dropped, _ = accounted(64)
        assert small_dropped > 0
        assert small_total == total


class TestSampling:
    def _record(self, tracer, n=100):
        for i in range(n):
            tracer.record_leaf("injection", {"seq": i}, 0.0, 1.0, None, None)

    def test_sampling_off_by_default(self):
        tracer = Tracer()
        self._record(tracer, 10)
        assert len(tracer) == 10
        assert tracer.sampled_out == 0

    def test_one_in_n_retention_and_accounting(self):
        tracer = Tracer(sample_every=10)
        self._record(tracer, 100)
        assert len(tracer) == 10
        assert tracer.sampled_out == 90
        assert len(tracer) + tracer.dropped + tracer.sampled_out == 100

    def test_same_seed_reproduces_the_same_sampled_trace(self):
        def run(seed):
            tracer = Tracer(sample_every=7, sample_seed=seed)
            self._record(tracer, 200)
            return [s.attributes["seq"] for s in tracer.spans()]

        assert run(42) == run(42)

    def test_phase_offset_is_seed_derived(self):
        seqs = {seed: None for seed in range(20)}
        for seed in seqs:
            tracer = Tracer(sample_every=10, sample_seed=seed)
            self._record(tracer, 30)
            seqs[seed] = tuple(s.attributes["seq"] for s in tracer.spans())
        # Different seeds land on different phases (not all identical).
        assert len(set(seqs.values())) > 1

    def test_sampled_out_spans_consume_no_ids(self):
        tracer = Tracer(sample_every=5)
        self._record(tracer, 25)
        ids = [s.span_id for s in tracer.spans()]
        assert ids == list(range(1, len(ids) + 1))

    def test_sampled_out_ctx_span_is_transparent_to_nesting(self):
        tracer = Tracer(sample_every=2, sample_seed=3)
        kept = []
        with tracer.span("root") as root:
            for _ in range(4):
                with tracer.span("mid"):
                    pass
        for span in tracer.spans():
            if span.name == "mid":
                kept.append(span)
                assert span.parent_id == root.span_id
        assert 0 < len(kept) < 4

    def test_begin_shard_resets_the_phase(self):
        def shard_run(tracer, n):
            tracer.begin_shard()
            self._record(tracer, n)

        two = Tracer(sample_every=10, sample_seed=9)
        shard_run(two, 30)
        first_half = [s.attributes["seq"] for s in two.spans()]
        shard_run(two, 30)
        seqs = [s.attributes["seq"] for s in two.spans()]
        # Each shard samples from a fresh per-shard count, so the second
        # 30-record shard retains the *same* seq pattern as the first --
        # the invariant that makes worker-local sampling (which always
        # starts fresh) merge identically to in-process sampling.
        assert seqs[: len(first_half)] == first_half
        assert seqs[len(first_half) :] == first_half

    def test_sample_every_validated(self):
        with pytest.raises(ValueError):
            Tracer(sample_every=0)
