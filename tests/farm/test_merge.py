"""Unit tests for the farm's merge layer.

The merge operations are the trust boundary of the sharded engine: if they
are associative and overlap-rejecting, the sharded study is exactly the
serial study.  Each is exercised on empty input, a single shard (identity),
and overlapping shards (partitioning-bug rejection).
"""

import pytest

from repro.analysis.manifest import Manifestation, StudyCollector
from repro.apps.catalog import build_wear_corpus
from repro.experiments.config import QUICK
from repro.farm import derive_plan, derive_seed, shard_packages
from repro.faults.plan import FaultPlan
from repro.qgj.campaigns import Campaign
from repro.qgj.results import AppRunResult, FuzzSummary
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.trace import Span, Tracer


def _summary(*apps):
    return FuzzSummary(device="moto360", apps=list(apps))


class TestSummaryMerge:
    def test_empty_merge_is_rejected(self):
        with pytest.raises(ValueError, match="nothing to merge"):
            FuzzSummary.merge([])

    def test_single_summary_round_trips(self):
        one = _summary(AppRunResult(package="a", campaign=Campaign.A))
        merged = FuzzSummary.merge([one])
        assert merged.to_wire() == one.to_wire()

    def test_shards_concatenate_in_order(self):
        left = _summary(AppRunResult(package="a", campaign=Campaign.A))
        right = _summary(
            AppRunResult(package="b", campaign=Campaign.A),
            AppRunResult(package="b", campaign=Campaign.B),
        )
        merged = FuzzSummary.merge([left, right])
        assert [(app.package, app.campaign) for app in merged.apps] == [
            ("a", Campaign.A),
            ("b", Campaign.A),
            ("b", Campaign.B),
        ]

    def test_overlapping_segments_are_rejected(self):
        left = _summary(AppRunResult(package="a", campaign=Campaign.A))
        right = _summary(AppRunResult(package="a", campaign=Campaign.A))
        with pytest.raises(ValueError, match="overlapping shard results"):
            FuzzSummary.merge([left, right])

    def test_device_mismatch_is_rejected(self):
        with pytest.raises(ValueError, match="different devices"):
            FuzzSummary.merge(
                [FuzzSummary(device="moto360"), FuzzSummary(device="nexus6")]
            )


@pytest.fixture(scope="module")
def universe():
    return build_wear_corpus(seed=QUICK.corpus_seed).packages()


class TestCollectorMerge:
    def test_empty_merge_is_rejected(self, universe):
        with pytest.raises(ValueError, match="nothing to merge"):
            StudyCollector.merge([], universe)

    def test_single_collector_round_trips(self, universe):
        one = StudyCollector(universe)
        one.fold((), universe[0].package, "A")
        merged = StudyCollector.merge([one.evidence()], universe)
        assert merged.app_campaign == one.app_campaign
        assert merged.segments_folded == 1
        assert merged.component_records() == one.component_records()

    def test_disjoint_segments_sum(self, universe):
        left = StudyCollector(universe)
        left.fold((), universe[0].package, "A")
        right = StudyCollector(universe)
        right.fold((), universe[1].package, "A")
        right.fold((), universe[1].package, "B")
        merged = StudyCollector.merge([left.evidence(), right.evidence()], universe)
        assert merged.segments_folded == 3
        assert set(merged.app_campaign) == {
            (universe[0].package, "A"),
            (universe[1].package, "A"),
            (universe[1].package, "B"),
        }

    def test_overlapping_segments_are_rejected(self, universe):
        left = StudyCollector(universe)
        left.fold((), universe[0].package, "A")
        right = StudyCollector(universe)
        right.fold((), universe[0].package, "A")
        with pytest.raises(ValueError, match="overlapping shard results"):
            StudyCollector.merge([left.evidence(), right.evidence()], universe)

    def test_row_outside_the_universe_is_rejected(self, universe):
        shard = StudyCollector(universe)
        outside = _first_record(shard, universe[1])
        outside.security_denials += 1
        with pytest.raises(ValueError, match="outside the study's component universe"):
            StudyCollector.merge([shard.evidence()], universe[:1])

    def test_evidence_keeps_only_rows_that_saw_evidence(self, universe):
        shard = StudyCollector(universe)
        denied = _first_record(shard, universe[0])
        denied.security_denials += 2
        rebooted = _first_record(shard, universe[1])
        rebooted.reboot_involved = True
        shipped = shard.evidence()
        assert shipped.component_records() == [denied, rebooted]
        assert shipped.package_meta(universe[0].package) is None

    def test_untouched_components_are_no_effect_once_in_corpus_order(self, universe):
        left, right = StudyCollector(universe), StudyCollector(universe)
        _first_record(left, universe[1]).anr_count += 1
        _first_record(right, universe[1]).anr_count += 2
        _first_record(right, universe[0]).handled_classes["java.lang.X"] += 1
        merged = StudyCollector.merge([left.evidence(), right.evidence()], universe)
        assert [r.component for r in merged.component_records()] == [
            r.component for r in StudyCollector(universe).component_records()
        ]
        assert _first_record(merged, universe[1]).anr_count == 3
        counts = merged.manifestation_counts()
        assert sum(counts.values()) == len(merged.component_records())
        assert counts[Manifestation.HANG] == 1
        assert merged.package_meta(universe[0].package) is universe[0]


def _first_record(collector, package):
    return collector.record_for(package.components[0].name.flatten_to_string())


class TestMetricsMerge:
    def test_counters_sum_per_label_set(self):
        live, shard = MetricsRegistry(), MetricsRegistry()
        live.counter("intents", "sent", ("campaign",)).labels(campaign="A").inc(3)
        shard.counter("intents", "sent", ("campaign",)).labels(campaign="A").inc(4)
        shard.counter("intents", "sent", ("campaign",)).labels(campaign="B").inc(1)
        live.merge_from(shard)
        counter = live.get("intents")
        assert counter.total_where(campaign="A") == 7
        assert counter.total_where(campaign="B") == 1

    def test_gauges_take_the_last_merged_value(self):
        live, shard = MetricsRegistry(), MetricsRegistry()
        live.gauge("depth", "open spans").set(5)
        shard.gauge("depth", "open spans").set(2)
        live.merge_from(shard)
        ((_, child),) = live.get("depth").samples()
        assert child.value == 2

    def test_histograms_add_elementwise(self):
        buckets = (1.0, 10.0)
        live, shard = MetricsRegistry(), MetricsRegistry()
        live.histogram("lat", "latency", buckets=buckets).observe(0.5)
        shard.histogram("lat", "latency", buckets=buckets).observe(5.0)
        shard.histogram("lat", "latency", buckets=buckets).observe(50.0)
        live.merge_from(shard)
        hist = live.get("lat")
        assert hist.total_count() == 3
        ((_, child),) = hist.samples()
        assert child.sum == 55.5
        assert child.count == 3
        assert sum(child.counts) == 2  # 50.0 overflows the top bucket

    def test_bucket_mismatch_is_rejected(self):
        live, shard = MetricsRegistry(), MetricsRegistry()
        live.histogram("lat", "latency", buckets=(1.0, 10.0))
        shard.histogram("lat", "latency", buckets=(2.0, 20.0)).observe(1.0)
        with pytest.raises(ValueError, match="cannot merge histograms"):
            live.merge_from(shard)

    def test_kind_conflict_is_rejected(self):
        live, shard = MetricsRegistry(), MetricsRegistry()
        live.counter("x", "")
        shard.gauge("x", "").set(1)
        with pytest.raises(ValueError):
            live.merge_from(shard)


def _span(span_id, parent_id, name="s"):
    return Span(
        span_id=span_id,
        parent_id=parent_id,
        name=name,
        attributes={},
        start_wall_s=0.0,
        start_virtual_ms=0.0,
    )


class TestTracerAbsorb:
    def test_ids_rebase_onto_the_live_sequence(self):
        tracer = Tracer(capacity=16)
        with tracer.span("live"):
            pass
        tracer.absorb([_span(1, None, "campaign"), _span(2, 1, "package")])
        spans = tracer.spans()
        assert [span.name for span in spans] == ["live", "campaign", "package"]
        live, campaign, package = spans
        assert campaign.span_id != live.span_id
        assert package.parent_id == campaign.span_id

    def test_out_of_batch_parents_become_roots(self):
        tracer = Tracer(capacity=16)
        tracer.absorb([_span(7, 99, "orphan")])
        assert tracer.spans()[0].parent_id is None

    def test_dropped_counts_accumulate(self):
        tracer = Tracer(capacity=2)
        tracer.absorb([_span(i, None) for i in range(1, 5)], dropped=3)
        # capacity 2: two of the four absorbed spans overflow, plus the
        # shard's own pre-merge drops.
        assert len(tracer.spans()) == 2
        assert tracer.dropped == 2 + 3


class TestShardDerivation:
    def test_one_shard_per_package(self):
        assert shard_packages(["a", "b"]) == [("a", ("a",)), ("b", ("b",))]

    def test_seed_is_stable_and_key_unique(self):
        assert derive_seed(2018, "com.foo") == derive_seed(2018, "com.foo")
        assert derive_seed(2018, "com.foo") != derive_seed(2018, "com.bar")
        assert 0 <= derive_seed(2018, "com.foo") <= 0xFFFFFFFF

    def test_plan_derivation_reseeds_but_keeps_intervals(self):
        plan = FaultPlan(seed=13, binder_every_ms=8_000.0)
        derived = derive_plan(plan, derive_seed(2018, "com.foo"))
        assert derived.binder_every_ms == plan.binder_every_ms
        assert derived.seed != plan.seed
        assert derive_plan(None, 123) is None
