"""Campaign telemetry: the monitoring plane beside the injector.

The DSN'18 study observes the *system under test* through logcat; this
package observes the *campaign itself* -- injection throughput, ANR-watchdog
latency, dispatch traffic, log-buffer pressure, and where a run spends its
time -- the instrumentation plane that fault-injection campaigns need
beside the injector (Cotroneo et al.) and that every later perf claim in
this repo is judged against.

Four modules:

* :mod:`repro.telemetry.metrics` -- process-wide Counters / Gauges /
  fixed-bucket Histograms with labeled series;
* :mod:`repro.telemetry.trace` -- nested span tracing (``study →
  campaign → package → component``) stamped with virtual and wall clocks;
* :mod:`repro.telemetry.exporters` -- Prometheus text exposition, JSONL
  trace export, and the ``dumpsys telemetry`` summary table;
* :mod:`repro.telemetry.progress` -- heartbeat snapshots for paper-scale
  runs.

**Telemetry is off by default and free when off.**  Instrument sites fetch
the process-wide handle with :func:`get` and guard on ``.enabled``; the
disabled handle is a set of shared no-op singletons, so a disabled run pays
one attribute check per hot-path call and nothing else.

Usage::

    from repro import telemetry

    with telemetry.session() as t:        # or telemetry.enable() / .disable()
        result = run_wear_study(QUICK)
        print(telemetry.exporters.render_summary(t))
"""

from __future__ import annotations

import contextlib
from typing import Iterator

from repro.telemetry import exporters, metrics, profiler, progress, record, trace
from repro.telemetry.metrics import NOOP_REGISTRY, MetricsRegistry, NoopRegistry
from repro.telemetry.profiler import NOOP_PROFILER, NoopProfiler, PhaseProfiler
from repro.telemetry.progress import NOOP_HEARTBEAT, Heartbeat, NoopHeartbeat, Snapshot
from repro.telemetry.trace import DEFAULT_SPAN_CAPACITY, NOOP_TRACER, NoopTracer, Span, Tracer

__all__ = [
    "Telemetry",
    "enable",
    "disable",
    "enabled",
    "get",
    "session",
    "exporters",
    "metrics",
    "profiler",
    "progress",
    "record",
    "trace",
]


class Telemetry:
    """The process-wide telemetry handle: registry + tracer + heartbeat.

    A :class:`~repro.telemetry.profiler.PhaseProfiler` rides along when
    self-profiling is requested (the runner's ``--profile``); otherwise the
    shared no-op profiler keeps the hot path to one attribute check.
    """

    def __init__(
        self, enabled: bool, metrics_registry, tracer, heartbeat, profiler=NOOP_PROFILER
    ) -> None:
        self.enabled = enabled
        self.metrics = metrics_registry
        self.tracer = tracer
        self.progress = heartbeat
        self.profiler = profiler

    def set_clock(self, clock) -> None:
        """Attach a device's virtual clock to the tracer and heartbeat."""
        self.tracer.set_clock(clock)
        self.progress.set_clock(clock)

    def flush(self) -> None:
        """Drain batched recording state into the registry.

        Registry reads flush automatically; this is for the moments a
        *consistent object* matters rather than a read -- e.g. before a
        farm shard pickles its registry into a :class:`ShardResult`.
        """
        self.metrics.flush()


#: The permanent disabled handle -- all shared no-op singletons.
_DISABLED = Telemetry(False, NOOP_REGISTRY, NOOP_TRACER, NOOP_HEARTBEAT)
_active: Telemetry = _DISABLED


def get() -> Telemetry:
    """The current process-wide handle (the no-op handle when disabled)."""
    return _active


def enabled() -> bool:
    return _active.enabled


def enable(
    clock=None,
    span_capacity: int = DEFAULT_SPAN_CAPACITY,
    heartbeat_every: int = progress.DEFAULT_EVERY_INJECTIONS,
    profile: bool = False,
) -> Telemetry:
    """Install a fresh live registry/tracer/heartbeat and return the handle.

    Calling it again replaces the previous instruments (a fresh campaign
    starts from zero).  *clock* may be attached later via
    :meth:`Telemetry.set_clock` once the device exists, and *profile* arms
    the :class:`~repro.telemetry.profiler.PhaseProfiler`.
    """
    global _active
    registry = MetricsRegistry()
    heartbeat = Heartbeat(registry, every_injections=heartbeat_every, clock=clock)
    _active = Telemetry(
        True,
        registry,
        Tracer(capacity=span_capacity, clock=clock),
        heartbeat,
        profiler=PhaseProfiler() if profile else NOOP_PROFILER,
    )
    return _active


def disable() -> None:
    """Return to the free no-op handle (recorded data is discarded)."""
    global _active
    _active = _DISABLED


@contextlib.contextmanager
def session(
    clock=None,
    span_capacity: int = DEFAULT_SPAN_CAPACITY,
    heartbeat_every: int = progress.DEFAULT_EVERY_INJECTIONS,
    profile: bool = False,
) -> Iterator[Telemetry]:
    """Enable telemetry for a ``with`` block, disabling on exit."""
    handle = enable(
        clock=clock,
        span_capacity=span_capacity,
        heartbeat_every=heartbeat_every,
        profile=profile,
    )
    try:
        yield handle
    finally:
        disable()
