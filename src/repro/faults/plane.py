"""The installed fault plane: hook entry points called from the simulator.

Mirrors the telemetry plane's discipline exactly: a process-wide handle
fetched with :func:`repro.faults.get`, guarded at every instrument site by
``plane.armed``.  With no plan installed the handle is a shared
:class:`NoopPlane` whose ``armed`` is ``False``, so the simulator pays one
attribute check per hook and nothing else -- zero behavior drift from seed.

Hook sites (all in the android layer):

* :meth:`FaultPlane.on_adb` -- ``adb.py``, entry of every adb command;
* :meth:`FaultPlane.on_transact` -- ``binder.py`` transactions and the
  activity manager's top-level dispatch boundary;
* :meth:`FaultPlane.on_process_table` -- ``process.py`` process lookup
  (where lmkd would run);
* logcat truncation rides on :meth:`FaultPlane.on_adb` (the loss is
  observed when the operator pulls the buffer);
* :meth:`FaultPlane.on_system_service` -- the activity manager's top-level
  dispatch boundary (service outages, system_server restarts, and
  missing-method compat mismatches manifest here);
* :meth:`FaultPlane.on_resolve` -- package-manager component resolution
  (stale ``ComponentInfo`` parcels);
* :meth:`FaultPlane.check_service` / :meth:`FaultPlane.take_corruption` --
  in-dispatch sensor-service health and listener-registration corruption;
* :meth:`FaultPlane.take_compat_delta` -- wear data-sync replication
  (behavioral delta under a skewed :class:`~repro.faults.plan.CompatMatrix`).

The plane raises the infrastructure error classes *on behalf of* the
android hook sites: the android layer never imports :mod:`repro.faults`
(its package ``__init__`` imports eagerly, which would cycle), it only
calls plane methods with plain service-name strings.

Execution state is kept *per device clock* so paired devices (watch and
phone) each see an independent, deterministic schedule.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from repro import telemetry
from repro.android.jtypes import DeadObjectException, TransactionTooLargeException
from repro.faults.errors import (
    AdbSessionDropped,
    CompatMismatchError,
    ServiceRestarted,
    ServiceUnavailable,
    StaleBinderReply,
)
from repro.faults.plan import (
    BASE_WEAR_API,
    BINDER_TOO_LARGE,
    COMPAT_MISSING_METHOD,
    CORRUPT_STALE_COMPONENT,
    FaultEvent,
    FaultKind,
    FaultPlan,
    PlanExecution,
)
from repro.faults.services import SERVICE_OUTAGE_WINDOW_MS
from repro.telemetry.metrics import (
    COMPAT_MISMATCHES,
    FAULTS_INJECTED,
    SERVICE_FAULTS_INJECTED,
)

if TYPE_CHECKING:  # pragma: no cover - typing-only imports
    from repro.android.clock import Clock
    from repro.android.device import Device
    from repro.android.process import ProcessTable

#: Fraction of the logcat ring discarded by one truncation fault.
LOGCAT_TRUNCATE_FRACTION = 0.5

#: The framework entry point a pending ``missing_method`` compat mismatch
#: manifests on at each service boundary (the method the older half of a
#: skewed pair simply does not have).
COMPAT_GATED_FEATURES = {
    "activity": "ActivityManager.startRemoteActivity",
    "package": "PackageManager.getWearCapabilities",
    "sensor": "SensorManager.registerOffBodyListener",
}


def _count_fault(event: FaultEvent, clock: Optional["Clock"], handle=None) -> None:
    t = handle if handle is not None else telemetry.get()
    if not t.enabled:
        return
    t.metrics.counter(
        FAULTS_INJECTED,
        "Environment faults injected by the chaos plane, by kind.",
        ("kind",),
    ).labels(kind=event.kind.value).inc()
    if clock is not None:
        with t.tracer.span(
            "fault", clock=clock, kind=event.kind.value, param=event.param
        ):
            pass


def _count_service_fault(
    event: FaultEvent, clock: Optional["Clock"], handle=None
) -> None:
    t = handle if handle is not None else telemetry.get()
    if not t.enabled:
        return
    t.metrics.counter(
        SERVICE_FAULTS_INJECTED,
        "OS-service faults injected by the chaos plane, by kind.",
        ("kind",),
    ).labels(kind=event.kind.value).inc()
    if clock is not None:
        with t.tracer.span(
            "fault", clock=clock, kind=event.kind.value, param=event.param
        ):
            pass


def _count_compat(event: FaultEvent, clock: Optional["Clock"], handle=None) -> None:
    t = handle if handle is not None else telemetry.get()
    if not t.enabled:
        return
    t.metrics.counter(
        COMPAT_MISMATCHES,
        "Version-gated manifestations under a skewed phone/wear pair.",
    ).inc()
    if clock is not None:
        with t.tracer.span(
            "fault", clock=clock, kind=event.kind.value, param=event.param
        ):
            pass


class FaultPlane:
    """An armed fault plane executing one :class:`FaultPlan`."""

    armed = True

    def __init__(self, plan: FaultPlan, telemetry_handle=None) -> None:
        self.plan = plan
        self._executions: Dict[int, PlanExecution] = {}
        #: Strong refs so id() keys stay unique for the plane's lifetime.
        self._clocks: Dict[int, "Clock"] = {}
        #: Scoped telemetry for fault counters (a farm shard's handle);
        #: ``None`` falls back to the process-wide handle per event.
        self._telemetry = telemetry_handle

    # -- execution state ---------------------------------------------------------
    def execution_for(self, clock: "Clock") -> PlanExecution:
        execution = self._executions.get(id(clock))
        if execution is None:
            execution = PlanExecution(self.plan)
            self._executions[id(clock)] = execution
            self._clocks[id(clock)] = clock
        return execution

    def fingerprint(self) -> str:
        return self.plan.fingerprint()

    # -- hooks -------------------------------------------------------------------
    def on_adb(self, device: "Device") -> None:
        """Called at the entry of every adb command.

        Applies due logcat truncations first (the data was lost *before*
        this pull), then raises if the session dropped.
        """
        clock = device.clock
        execution = self.execution_for(clock)
        now = clock.now_ms()
        for event in execution.take_due(FaultKind.LOGCAT_TRUNCATE, now):
            _count_fault(event, clock, self._telemetry)
            self._truncate_logcat(device)
        drops = execution.take_due(FaultKind.ADB_DROP, now, limit=1)
        if drops:
            _count_fault(drops[0], clock, self._telemetry)
            raise AdbSessionDropped(
                f"adb: device {device.name!r} not found (session dropped at "
                f"{drops[0].at_ms:.0f}ms)"
            )

    @staticmethod
    def _truncate_logcat(device: "Device") -> None:
        logcat = device.logcat
        drop = int(len(logcat) * LOGCAT_TRUNCATE_FRACTION)
        if drop:
            logcat.truncate_oldest(drop)

    def on_transact(self, clock: "Clock", descriptor: str) -> None:
        """Called before a binder transaction; raises on a due fault."""
        execution = self.execution_for(clock)
        due = execution.take_due(FaultKind.BINDER, clock.now_ms(), limit=1)
        if not due:
            return
        event = due[0]
        _count_fault(event, clock, self._telemetry)
        if event.param == BINDER_TOO_LARGE:
            raise TransactionTooLargeException(
                f"data parcel size exceeds binder buffer on {descriptor}"
            )
        raise DeadObjectException(
            f"Transaction failed on {descriptor}: remote process is dead"
        )

    def on_process_table(self, table: "ProcessTable") -> None:
        """Called on process lookup; reaps lmkd victims for due kills."""
        clock = table.clock
        execution = self.execution_for(clock)
        for event in execution.take_due(FaultKind.LMKD_KILL, clock.now_ms()):
            victims = sorted(
                (
                    p
                    for p in table.live_processes()
                    if not p.is_system and not p.is_native
                ),
                key=lambda p: p.name,
            )
            if not victims:
                continue
            _count_fault(event, clock, self._telemetry)
            victim = execution.victim_rng.choice(victims)
            table.lmkd_kill(victim)

    # -- OS-service hooks --------------------------------------------------------
    def _drain_outages(self, execution: PlanExecution, clock: "Clock") -> None:
        for event in execution.take_due(FaultKind.SERVICE_OUTAGE, clock.now_ms()):
            _count_service_fault(event, clock, self._telemetry)
            end = event.at_ms + SERVICE_OUTAGE_WINDOW_MS
            if end > execution.outages.get(event.param, 0.0):
                execution.outages[event.param] = end

    def _drain_corruptions(self, execution: PlanExecution, clock: "Clock") -> None:
        for event in execution.take_due(FaultKind.SERVICE_CORRUPT, clock.now_ms()):
            _count_service_fault(event, clock, self._telemetry)
            execution.pending_corruptions.append(event.param)

    def _drain_compat(self, execution: PlanExecution, clock: "Clock") -> None:
        compat = self.plan.compat
        skewed = compat is not None and compat.skew > 0
        for event in execution.take_due(FaultKind.COMPAT_MISMATCH, clock.now_ms()):
            if not skewed:
                # Matched pair: the stream stays wired but is inert -- events
                # drain silently and uncounted, so a zero-skew run is
                # byte-identical to a run with no matrix at all.
                continue
            _count_compat(event, clock, self._telemetry)
            if event.param == COMPAT_MISSING_METHOD:
                execution.pending_missing_method += 1
            else:
                execution.pending_deltas += 1

    def _check_window(
        self, execution: PlanExecution, clock: "Clock", service: str
    ) -> None:
        end = execution.outages.get(service)
        if end is None:
            return
        if clock.now_ms() < end:
            raise ServiceUnavailable(service, end)
        del execution.outages[service]

    def on_system_service(self, device: "Device", service: str) -> None:
        """Top-of-dispatch system-service boundary (activity/package managers).

        Applies a due system_server restart first (the whole server bounces,
        the caller's binder dies), then opens/enforces unavailability
        windows, then manifests a pending missing-method compat mismatch.
        """
        clock = device.clock
        execution = self.execution_for(clock)
        restarts = execution.take_due(FaultKind.SYSTEM_RESTART, clock.now_ms(), limit=1)
        if restarts:
            _count_service_fault(restarts[0], clock, self._telemetry)
            # The restart resets in-flight service state: open windows close
            # and unconsumed corrupted replies die with their services.
            execution.outages.clear()
            execution.pending_corruptions.clear()
            device.restart_system_server(
                f"fault plane: restart scheduled at {restarts[0].at_ms:.0f}ms"
            )
            raise ServiceRestarted(service)
        self._drain_outages(execution, clock)
        self._drain_corruptions(execution, clock)
        self._drain_compat(execution, clock)
        self._check_window(execution, clock, service)
        if execution.pending_missing_method:
            execution.pending_missing_method -= 1
            compat = self.plan.compat
            assert compat is not None  # only queued under a skewed matrix
            raise CompatMismatchError(
                COMPAT_GATED_FEATURES.get(service, service),
                BASE_WEAR_API,
                compat.effective_api,
            )

    def on_resolve(self, device: "Device") -> None:
        """Package-manager component resolution; stale parcels manifest here."""
        self.on_system_service(device, "package")
        execution = self.execution_for(device.clock)
        if CORRUPT_STALE_COMPONENT in execution.pending_corruptions:
            execution.pending_corruptions.remove(CORRUPT_STALE_COMPONENT)
            raise StaleBinderReply("package", "mangled ComponentInfo parcel")

    def check_service(self, clock: "Clock", service: str) -> None:
        """In-dispatch health check (sensor registration can happen at any
        dispatch depth, so it gets outage windows but never a restart --
        bouncing system_server mid-lifecycle would tear down the very
        dispatch that is executing)."""
        execution = self.execution_for(clock)
        self._drain_outages(execution, clock)
        self._check_window(execution, clock, service)

    def take_corruption(self, clock: "Clock", param: str) -> bool:
        """Consume one pending corrupted-reply manifestation of *param*."""
        execution = self.execution_for(clock)
        self._drain_corruptions(execution, clock)
        if param in execution.pending_corruptions:
            execution.pending_corruptions.remove(param)
            return True
        return False

    def take_compat_delta(self, clock: "Clock") -> bool:
        """Consume one pending messaging/sync behavioral delta."""
        execution = self.execution_for(clock)
        self._drain_compat(execution, clock)
        if execution.pending_deltas:
            execution.pending_deltas -= 1
            return True
        return False


class NoopPlane:
    """Disabled twin: every hook is free and injects nothing."""

    armed = False

    def on_adb(self, device: "Device") -> None:  # pragma: no cover - never called hot
        pass

    def on_transact(self, clock: "Clock", descriptor: str) -> None:  # pragma: no cover
        pass

    def on_process_table(self, table: "ProcessTable") -> None:  # pragma: no cover
        pass

    def on_system_service(self, device: "Device", service: str) -> None:  # pragma: no cover
        pass

    def on_resolve(self, device: "Device") -> None:  # pragma: no cover
        pass

    def check_service(self, clock: "Clock", service: str) -> None:  # pragma: no cover
        pass

    def take_corruption(self, clock: "Clock", param: str) -> bool:  # pragma: no cover
        return False

    def take_compat_delta(self, clock: "Clock") -> bool:  # pragma: no cover
        return False

    def fingerprint(self) -> str:
        return "none"


NOOP_PLANE = NoopPlane()
