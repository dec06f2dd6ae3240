"""Process-wide metrics: Counters, Gauges, and fixed-bucket Histograms.

The study's original instrumentation plane was ``logcat`` plus a stopwatch;
this module is the monitoring plane a production-scale campaign needs
beside the injector (in the spirit of Cotroneo et al.'s dependability
monitors).  The model is Prometheus': a registry owns named metrics, each
metric owns labeled *children* (one per label-value combination), and the
exposition layer (:mod:`repro.telemetry.exporters`) renders the whole
registry as text.

Histograms are *virtual-ms aware*: the default buckets are laid out around
the simulator's own time constants (100 ms intent pacing, 5 s ANR window,
20 s maximum main-thread stall, 30 s boot), so latency series recorded in
virtual milliseconds land in meaningful buckets without per-site tuning.

Everything here is plain in-process bookkeeping -- no threads, no I/O --
and the :class:`NoopRegistry` twin makes the whole plane free when
telemetry is disabled.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

# -- canonical series names (documented in README "Observability") -----------------
INTENTS_INJECTED = "intents_injected_total"
ANR_LATENCY = "anr_watchdog_latency_ms"
AM_DISPATCHES = "am_dispatches_total"
LOGCAT_WRITTEN = "logcat_records_written_total"
LOGCAT_DROPPED = "logcat_records_dropped_total"
LOGCAT_BUFFERED = "logcat_buffer_records"
MONKEY_EVENTS = "monkey_events_generated_total"
UI_EVENTS = "ui_events_injected_total"
UI_CRASHES = "ui_crashes_total"
UI_EXCEPTIONS = "ui_exceptions_total"
FAULTS_INJECTED = "env_faults_injected_total"
SERVICE_FAULTS_INJECTED = "service_faults_injected_total"
COMPAT_MISMATCHES = "compat_mismatches_total"
RETRIES = "qgj_transport_retries_total"
RETRY_BACKOFF = "qgj_retry_backoff_ms"
TRANSPORT_FAILURES = "qgj_transport_failures_total"
QUARANTINED = "qgj_quarantined_packages_total"
SHARD_RETRIES = "shard_retries_total"
SHARDS_POISONED = "shards_poisoned"
NOVEL_BEHAVIOURS = "novel_behaviours_total"
CORPUS_SIZE = "behaviour_corpus_size"
ARM_BUDGET = "guided_arm_budget_intents"
#: Fleet-kernel series, registered lazily by fleet lanes so a clean
#: non-fleet export carries none of them.
CRASHES = "crashes_total"
INTENTS_SENT = "intents_sent_total"
FLEET_PAIRS_ACTIVE = "fleet_pairs_active"
FLEET_PAIRS_FINISHED = "fleet_pairs_finished_total"
FLEET_LANE_OCCUPANCY = "fleet_lane_occupancy"
#: Service-plane series, registered lazily by the fuzzing-as-a-service
#: daemon (:mod:`repro.service.daemon`).
SERVICE_QUEUE_DEPTH = "service_queue_depth"
SERVICE_LEASE_EXPIRIES = "service_lease_expiries_total"
SERVICE_JOBS_RECOVERED = "service_jobs_recovered_total"
SERVICE_REJECTED = "service_rejected_submissions_total"
SERVICE_STUDIES_COMPLETED = "service_studies_completed_total"

#: Default histogram buckets, in virtual milliseconds, spanning the
#: simulator's time constants (pacing .. ANR window .. stall cap .. boot).
DEFAULT_MS_BUCKETS: Tuple[float, ...] = (
    1, 5, 10, 25, 50, 100, 250, 500,
    1000, 2500, 5000, 7500, 10000, 15000, 20000, 30000, 60000,
)


def _validate_name(name: str) -> None:
    if not name or not all(c.isalnum() or c in "_:" for c in name):
        raise ValueError(f"invalid metric name: {name!r}")


class CounterChild:
    """One labeled series of a :class:`Counter`."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        self.value += amount

    def merge_from(self, other: "CounterChild") -> None:
        self.value += other.value


class GaugeChild:
    """One labeled series of a :class:`Gauge`."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def merge_from(self, other: "GaugeChild") -> None:
        # Gauges are level measurements: the later merge (shard order) wins.
        self.value = other.value


class HistogramChild:
    """One labeled series of a :class:`Histogram` (cumulative buckets)."""

    __slots__ = ("buckets", "counts", "sum", "count")

    def __init__(self, buckets: Sequence[float]) -> None:
        self.buckets = tuple(buckets)
        self.counts = [0] * len(self.buckets)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        from repro.telemetry.record import bucket_index_table

        self.sum += value
        self.count += 1
        i = bucket_index_table(self.buckets).index(value)
        if i < len(self.counts):
            self.counts[i] += 1

    def cumulative_counts(self) -> List[int]:
        """Per-bucket cumulative counts (Prometheus ``le`` semantics)."""
        total, out = 0, []
        for c in self.counts:
            total += c
            out.append(total)
        return out

    def merge_from(self, other: "HistogramChild") -> None:
        if other.buckets != self.buckets:
            raise ValueError(
                f"cannot merge histograms with different buckets: "
                f"{other.buckets} != {self.buckets}"
            )
        for i, count in enumerate(other.counts):
            self.counts[i] += count
        self.sum += other.sum
        self.count += other.count


class _Metric:
    """Shared machinery: label validation and child management."""

    kind = "untyped"
    child_class: type = CounterChild

    def __init__(self, name: str, help: str, labelnames: Sequence[str] = ()) -> None:
        _validate_name(name)
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._children: Dict[Tuple[str, ...], object] = {}

    def _new_child(self):
        return self.child_class()

    def labels(self, **labels: str):
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"{self.name} expects labels {self.labelnames}, got {tuple(labels)}"
            )
        key = tuple(str(labels[n]) for n in self.labelnames)
        child = self._children.get(key)
        if child is None:
            child = self._new_child()
            self._children[key] = child
        return child

    def _default_child(self):
        if self.labelnames:
            raise ValueError(f"{self.name} is labeled; use .labels(...)")
        return self.labels()

    def samples(self) -> Iterator[Tuple[Dict[str, str], object]]:
        """Yield ``(labels_dict, child)`` for every series."""
        for key, child in sorted(self._children.items()):
            yield dict(zip(self.labelnames, key)), child


class Counter(_Metric):
    kind = "counter"
    child_class = CounterChild

    def inc(self, amount: float = 1.0) -> None:
        self._default_child().inc(amount)

    def total(self) -> float:
        """Sum over every labeled series."""
        return sum(child.value for child in self._children.values())

    def total_where(self, **labels: str) -> float:
        """Sum over series whose labels include *labels*."""
        total = 0.0
        for sample_labels, child in self.samples():
            if all(sample_labels.get(k) == str(v) for k, v in labels.items()):
                total += child.value
        return total


class Gauge(_Metric):
    kind = "gauge"
    child_class = GaugeChild

    def set(self, value: float) -> None:
        self._default_child().set(value)

    def inc(self, amount: float = 1.0) -> None:
        self._default_child().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._default_child().dec(amount)


class Histogram(_Metric):
    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_MS_BUCKETS,
    ) -> None:
        super().__init__(name, help, labelnames)
        if list(buckets) != sorted(buckets) or len(set(buckets)) != len(tuple(buckets)):
            raise ValueError(f"histogram buckets must be sorted and unique: {buckets}")
        self.buckets = tuple(buckets)

    def _new_child(self) -> HistogramChild:
        return HistogramChild(self.buckets)

    def observe(self, value: float) -> None:
        self._default_child().observe(value)

    def total_count(self) -> int:
        return sum(child.count for child in self._children.values())


class MetricsRegistry:
    """Get-or-create registry of named metrics.

    Re-registering a name is idempotent when the declaration matches and an
    error when it does not -- instrument sites declare their metric inline
    at each call and the registry guarantees they all share one series.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, _Metric] = {}
        self.enabled = True
        #: Bound handles (:mod:`repro.telemetry.record`) with batched state
        #: to drain before any read of the registry.
        self._watched: List[object] = []

    # -- batched recording (see repro.telemetry.record) --------------------------
    def watch(self, bound) -> None:
        """Register a bound handle whose pending state flushes on read."""
        self._watched.append(bound)

    def flush(self) -> None:
        """Drain every bound handle's pending samples into the registry."""
        for bound in self._watched:
            bound.flush()

    def _get_or_create(self, cls: type, name: str, help: str, labelnames, **kwargs):
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name, help, labelnames, **kwargs)
            self._metrics[name] = metric
            return metric
        if not isinstance(metric, cls) or metric.labelnames != tuple(labelnames):
            raise ValueError(
                f"metric {name!r} already registered as {metric.kind}"
                f"{metric.labelnames}, conflicting re-registration"
            )
        return metric

    def counter(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_MS_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, labelnames, buckets=buckets)

    def merge_from(self, other: "MetricsRegistry") -> None:
        """Fold another registry's series into this one.

        Counters and histogram buckets sum, gauges take the incoming value
        (merge order is shard order, so the last shard's level wins), and a
        name registered with a conflicting kind or label set is an error.
        The farm uses this to collapse per-shard registries into the
        study-wide registry the exporters render.  Both sides flush their
        batched handles first (ours here, the other's via ``collect``), so
        the merged gauges can never be overwritten by stale pending levels.
        """
        self.flush()
        for metric in other.collect():
            if isinstance(metric, Histogram):
                mine = self.histogram(
                    metric.name, metric.help, metric.labelnames, buckets=metric.buckets
                )
            elif isinstance(metric, Gauge):
                mine = self.gauge(metric.name, metric.help, metric.labelnames)
            else:
                mine = self.counter(metric.name, metric.help, metric.labelnames)
            for labels, child in metric.samples():
                mine.labels(**labels).merge_from(child)

    def get(self, name: str) -> Optional[_Metric]:
        self.flush()
        return self._metrics.get(name)

    def collect(self) -> Iterator[_Metric]:
        self.flush()
        for name in sorted(self._metrics):
            yield self._metrics[name]

    def __len__(self) -> int:
        return len(self._metrics)


class _NoopChild:
    """Absorbs every instrument call; shared singleton."""

    __slots__ = ()
    value = 0.0
    sum = 0.0
    count = 0

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


class _NoopMetric(_NoopChild):
    """A metric that is also its own (only) child."""

    __slots__ = ()

    def labels(self, **labels: str) -> "_NoopMetric":
        return self

    def total(self) -> float:
        return 0.0

    def total_where(self, **labels: str) -> float:
        return 0.0

    def total_count(self) -> int:
        return 0

    def samples(self):
        return iter(())


_NOOP_METRIC = _NoopMetric()


class NoopRegistry:
    """Disabled twin of :class:`MetricsRegistry`: every lookup is free."""

    enabled = False

    def watch(self, bound) -> None:
        pass

    def flush(self) -> None:
        pass

    def counter(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> _NoopMetric:
        return _NOOP_METRIC

    def gauge(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> _NoopMetric:
        return _NOOP_METRIC

    def histogram(self, name: str, help: str = "", labelnames=(), buckets=()) -> _NoopMetric:
        return _NOOP_METRIC

    def get(self, name: str) -> None:
        return None

    def collect(self):
        return iter(())

    def __len__(self) -> int:
        return 0


NOOP_REGISTRY = NoopRegistry()
