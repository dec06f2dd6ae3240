"""The batched recording core: sites, bound handles, flush-on-read."""

import pickle

from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.record import (
    BucketIndexTable,
    CounterSite,
    GaugeSite,
    HistogramSite,
    bucket_index_table,
)


class TestCounterSite:
    def test_family_registered_before_any_increment(self):
        registry = MetricsRegistry()
        site = CounterSite("hits_total", "Hits.", ("kind",))
        site.family(registry)
        assert registry.get("hits_total") is not None
        assert registry.get("hits_total").total() == 0

    def test_pending_batches_flush_on_registry_read(self):
        registry = MetricsRegistry()
        site = CounterSite("hits_total", "Hits.", ("kind",))
        handle = site.bind(registry, ("a",))
        handle.inc()
        handle.inc(2)
        # get() drains pending state first: readers never see stale totals.
        assert registry.get("hits_total").total() == 3
        assert handle.pending == 0

    def test_direct_slot_store_equivalent_to_inc(self):
        registry = MetricsRegistry()
        site = CounterSite("hits_total", "Hits.", ("kind",))
        handle = site.bind(registry, ("a",))
        handle.pending += 5  # the hot loops' idiom
        assert registry.get("hits_total").total() == 5

    def test_collect_flushes_too(self):
        registry = MetricsRegistry()
        site = CounterSite("hits_total", "Hits.", ("kind",))
        site.bind(registry, ("a",)).inc(7)
        ((_, families),) = [
            (m.name, m) for m in registry.collect() if m.name == "hits_total"
        ]
        ((_, child),) = families.samples()
        assert child.value == 7

    def test_bind_is_cached_per_label_tuple(self):
        registry = MetricsRegistry()
        site = CounterSite("hits_total", "Hits.", ("kind",))
        assert site.bind(registry, ("a",)) is site.bind(registry, ("a",))
        assert site.bind(registry, ("a",)) is not site.bind(registry, ("b",))

    def test_registry_change_invalidates_bindings(self):
        old, new = MetricsRegistry(), MetricsRegistry()
        site = CounterSite("hits_total", "Hits.", ("kind",))
        stale = site.bind(old, ("a",))
        stale.inc(3)
        fresh = site.bind(new, ("a",))
        fresh.inc(4)
        # Samples never leak across registries (sessions, shards, forks).
        assert old.get("hits_total").total() == 3
        assert new.get("hits_total").total() == 4
        assert stale is not fresh

    def test_merge_from_flushes_both_sides(self):
        live, shard = MetricsRegistry(), MetricsRegistry()
        site = CounterSite("hits_total", "Hits.", ("kind",))
        site.bind(live, ("a",)).inc(1)
        site.bind(shard, ("a",)).inc(10)
        live.merge_from(shard)
        assert live.get("hits_total").total() == 11

    def test_watched_handles_survive_registry_pickling(self):
        registry = MetricsRegistry()
        site = CounterSite("hits_total", "Hits.", ("kind",))
        site.bind(registry, ("a",)).inc(9)
        clone = pickle.loads(pickle.dumps(registry))
        assert clone.get("hits_total").total() == 9


class TestGaugeSite:
    def test_newest_level_wins(self):
        registry = MetricsRegistry()
        site = GaugeSite("depth", "Depth.")
        handle = site.bind(registry)
        handle.set(4)
        handle.set(2)
        ((_, child),) = registry.get("depth").samples()
        assert child.value == 2

    def test_clean_handle_does_not_overwrite(self):
        registry = MetricsRegistry()
        site = GaugeSite("depth", "Depth.")
        handle = site.bind(registry)
        handle.set(5)
        registry.get("depth")  # flush: dirty bit cleared
        child = registry.get("depth").labels()
        child.value = 99.0  # someone else sets the child directly
        registry.get("depth")
        assert child.value == 99.0  # a clean handle stays silent


class TestHistogramSite:
    def test_observations_batch_and_flush(self):
        registry = MetricsRegistry()
        site = HistogramSite("lat_ms", "Latency.", buckets=(1.0, 10.0, 100.0))
        handle = site.bind(registry)
        for v in (0.5, 5, 50, 500):
            handle.observe(v)
        ((_, child),) = registry.get("lat_ms").samples()
        assert child.count == 4
        assert child.sum == 555.5
        # One observation per finite bucket; the 500 lives only in count
        # (the +Inf bucket is rendered from count, not stored).
        assert child.counts == [1, 1, 1]

    def test_flush_is_idempotent(self):
        registry = MetricsRegistry()
        site = HistogramSite("lat_ms", "Latency.", buckets=(1.0, 10.0))
        handle = site.bind(registry)
        handle.observe(5)
        registry.get("lat_ms")
        registry.get("lat_ms")
        ((_, child),) = registry.get("lat_ms").samples()
        assert child.count == 1


class TestBucketIndexTable:
    BOUNDS = (1.0, 10.0, 100.0)

    def test_matches_bisection_for_every_small_integer(self):
        from bisect import bisect_left

        table = BucketIndexTable(self.BOUNDS)
        for v in range(0, 150):
            assert table.index(v) == bisect_left(self.BOUNDS, v)

    def test_fractional_values_fall_back_correctly(self):
        table = BucketIndexTable(self.BOUNDS)
        assert table.index(0.5) == 0
        assert table.index(1.5) == 1
        assert table.index(10.0) == 1
        assert table.index(10.1) == 2
        assert table.index(1000.0) == 3

    def test_tables_are_shared_per_layout(self):
        assert bucket_index_table(self.BOUNDS) is bucket_index_table(self.BOUNDS)

    def test_negative_values(self):
        table = BucketIndexTable(self.BOUNDS)
        assert table.index(-5.0) == 0
