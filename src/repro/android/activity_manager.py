"""The activity manager: intent dispatch, crash handling, ANR detection.

This is the framework boundary the whole study pivots on.  Every one of the
~1.5M injected intents flows through :meth:`ActivityManager.start_activity`
or :meth:`ActivityManager.start_service`, which perform -- in order -- the
same checks the real service performs:

1. **Resolution.**  Explicit intents resolve through the package manager;
   a missing component raises ``ActivityNotFoundException`` (activities) or
   returns null (services), surfaced to the *caller*, not the target.
2. **Permission enforcement.**  Protected system actions from unprivileged
   senders, non-exported targets, and permission-guarded components all
   raise ``SecurityException`` and the intent is dropped -- the paper's
   dominant (81.3%) exception class, and its *No Effect* manifestation.
3. **Delivery.**  The target process is started if needed, the component is
   instantiated (through the behaviour-model factory) and its lifecycle
   callbacks run on the process main thread.
4. **Failure containment.**  An uncaught throwable produces the
   ``FATAL EXCEPTION: main`` logcat block and kills the process (*Crash*);
   a handler that exceeds the ANR timeout produces an ANR block (*Hang*);
   either event is reported to the system server's aging model, which is
   how repeated failures escalate into the paper's two device *Reboots*.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Callable, Dict, List, Mapping, Optional, Protocol, Tuple

from repro.android.component import (
    Activity,
    ActivityState,
    BroadcastReceiver,
    Component,
    ComponentInfo,
    ComponentKind,
    Service,
    ServiceState,
    runtime_class_for,
)
from repro.android.context import Context
from repro.android.intent import ComponentName, Intent
from repro.android.jtypes import (
    ActivityNotFoundException,
    SecurityException,
    Throwable,
)
from repro.android.log import TAG_ACTIVITY_MANAGER, Logcat
from repro.android.package_manager import PackageManager
from repro.android.permissions import (
    PERMISSION_GRANTED,
    PROTECTED_ACTIONS,
    PermissionManager,
)
from repro.android.process import (
    DEFAULT_ANR_TIMEOUT_MS,
    MainThreadTask,
    ProcessRecord,
    ProcessTable,
)
from repro.telemetry.metrics import AM_DISPATCHES, ANR_LATENCY
from repro.telemetry.record import CounterSite, HistogramSite

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.android.device import Device

#: Dispatch counting sits on the path of every injected intent; the site
#: resolves each entry point to a bound handle once per telemetry session.
_DISPATCH_SITE = CounterSite(
    AM_DISPATCHES,
    "Intent dispatches through ActivityManagerService, by entry point.",
    ("entry",),
)

_ANR_SITE = HistogramSite(
    ANR_LATENCY,
    "Main-thread blockage (virtual ms) measured when the ANR"
    " watchdog fired.",
    ("package",),
)


class SystemHealthHooks(Protocol):
    """Callbacks into the system server's health/aging model."""

    def on_app_crash(self, process: ProcessRecord, info: ComponentInfo, throwable: Throwable) -> None:
        ...  # pragma: no cover - protocol

    def on_app_anr(self, process: ProcessRecord, info: ComponentInfo, reason: str) -> None:
        ...  # pragma: no cover - protocol

    def on_start_failure(self, info: ComponentInfo, throwable: Throwable) -> None:
        ...  # pragma: no cover - protocol


#: Factory signature for behaviour-model components.
ComponentFactory = Callable[[ComponentInfo, Context], Component]


@dataclasses.dataclass
class DispatchResult:
    """What happened when one intent was dispatched (as seen by the system)."""

    delivered: bool
    crashed: bool = False
    anr: bool = False
    throwable: Optional[Throwable] = None


class ActivityManager:
    """Simulated ``ActivityManagerService``."""

    def __init__(
        self,
        device: "Device",
        packages: PackageManager,
        permissions: PermissionManager,
        processes: ProcessTable,
        logcat: Logcat,
        anr_timeout_ms: float = DEFAULT_ANR_TIMEOUT_MS,
    ) -> None:
        self._device = device
        self._packages = packages
        self._permissions = permissions
        self._processes = processes
        self._logcat = logcat
        self.anr_timeout_ms = anr_timeout_ms
        self._factories: Dict[str, ComponentFactory] = {}
        self._health_hooks: List[SystemHealthHooks] = []
        #: Live component instances keyed by (process name, component string).
        self._live: Dict[tuple, Component] = {}
        self.dispatch_count = 0
        #: >0 while a component lifecycle is running; transport faults only
        #: fire on outermost dispatches, so behaviour-internal calls (which
        #: the real binder driver would also reach over in-process paths)
        #: never see an injected failure mid-lifecycle.
        self._dispatch_depth = 0
        #: The activity currently holding window focus (for UI events).
        self.foreground: Optional[ComponentInfo] = None
        # Bound dispatch-counter handles, cached per registry identity
        # (same discipline as Logcat): binding per dispatch would put an
        # intern + dict build on every injection.  The two injection-path
        # entries get dedicated lazily-bound slots so counting them is a
        # pointer compare and a slot store, with no call and no dict hit.
        self._dispatch_registry = None
        self._dispatch_handles: Dict[str, object] = {}
        self._h_start_activity = None
        self._h_start_service = None

    # -- wiring -----------------------------------------------------------------
    def register_factory(self, behavior_key: str, factory: ComponentFactory) -> None:
        """Map a manifest ``behavior_key`` to a component factory."""
        self._factories[behavior_key] = factory

    def register_factories(self, factories: Mapping[str, ComponentFactory]) -> None:
        """:meth:`register_factory` for every entry of *factories*."""
        self._factories.update(factories)

    def add_health_hooks(self, hooks: SystemHealthHooks) -> None:
        self._health_hooks.append(hooks)

    def _invalidate_dispatch_handles(self, metrics) -> None:
        """A different registry is live: drop every cached dispatch handle.

        Both the generic ``_dispatch_handles`` map and the dedicated
        injection-path slots key off ``_dispatch_registry``, so they must
        be invalidated together.  Handles stay lazily bound: a series only
        appears in exports once its entry point actually dispatches.
        """
        self._dispatch_handles = {}
        self._h_start_activity = None
        self._h_start_service = None
        self._dispatch_registry = metrics

    def _count_dispatch(self, entry: str, t=None) -> None:
        self.dispatch_count += 1
        if t is None:
            t = self._device.runtime.telemetry
        if t.enabled:
            metrics = t.metrics
            if metrics is not self._dispatch_registry:
                self._invalidate_dispatch_handles(metrics)
            handle = self._dispatch_handles.get(entry)
            if handle is None:
                handle = _DISPATCH_SITE.bind(metrics, (entry,))
                self._dispatch_handles[entry] = handle
            # Direct slot store: this is BoundCounter.inc(1) with the call
            # overhead shaved off the per-injection path.
            handle.pending += 1

    @property
    def outermost_dispatch(self) -> bool:
        """True outside any component lifecycle (the fuzzer's IPC edge)."""
        return self._dispatch_depth == 0

    def _transport_fault_check(self) -> None:
        """Fire a due transport or OS-service fault on an *outermost* dispatch.

        The fuzzer's transaction into ``IActivityManager`` is the IPC edge
        the chaos plane severs; once a lifecycle is executing, nested
        dispatches stay in-process and are not faulted here.  After the
        transport check, the service boundary fires: outage windows,
        system_server restarts, and missing-method compat mismatches.
        """
        if self._dispatch_depth > 0:
            return
        plane = self._device.runtime.faults
        if plane.armed:
            plane.on_transact(self._device.clock, "android.app.IActivityManager")
            plane.on_system_service(self._device, "activity")

    # -- public API -----------------------------------------------------------------
    def start_activity(self, caller_package: str, intent: Intent) -> DispatchResult:
        """``Context.startActivity``: resolve, check, deliver, contain."""
        t = self._device.runtime.telemetry
        profiler = t.profiler
        if profiler.enabled:
            profiler.enter("am")
            try:
                return self._start_activity(caller_package, intent, t)
            finally:
                profiler.exit()
        return self._start_activity(caller_package, intent, t)

    def _start_activity(self, caller_package: str, intent: Intent, t) -> DispatchResult:
        self._transport_fault_check()
        # Inlined _count_dispatch("start_activity"): this runs once per
        # injected activity intent, so the count is a pointer compare and a
        # slot store on a dedicated handle, with no call and no dict hit.
        self.dispatch_count += 1
        if t.enabled:
            if t.metrics is not self._dispatch_registry:
                self._invalidate_dispatch_handles(t.metrics)
            handle = self._h_start_activity
            if handle is None:
                handle = _DISPATCH_SITE.bind(t.metrics, ("start_activity",))
                self._h_start_activity = handle
            handle.pending += 1
        info = self._resolve_activity(intent)
        if info is None:
            raise ActivityNotFoundException(
                f"No Activity found to handle {intent.to_log_string()}"
            )
        self._enforce_permissions(caller_package, intent, info)
        return self._deliver_to_activity(info, intent)

    def start_service(self, caller_package: str, intent: Intent) -> Optional[ComponentName]:
        """``Context.startService``: returns the component name or ``None``."""
        name, _ = self.start_service_with_result(caller_package, intent)
        return name

    def start_service_with_result(
        self, caller_package: str, intent: Intent
    ) -> Tuple[Optional[ComponentName], DispatchResult]:
        """Like :meth:`start_service`, but also exposes the dispatch outcome.

        The real API only returns the component name; the extra result is
        simulator introspection used by the fuzzer's in-flight counters
        (the authoritative classification still comes from logcat).
        """
        t = self._device.runtime.telemetry
        profiler = t.profiler
        if profiler.enabled:
            profiler.enter("am")
            try:
                return self._start_service_with_result(caller_package, intent, t)
            finally:
                profiler.exit()
        return self._start_service_with_result(caller_package, intent, t)

    def _start_service_with_result(
        self, caller_package: str, intent: Intent, t
    ) -> Tuple[Optional[ComponentName], DispatchResult]:
        self._transport_fault_check()
        # Inlined _count_dispatch("start_service"); see _start_activity.
        self.dispatch_count += 1
        if t.enabled:
            if t.metrics is not self._dispatch_registry:
                self._invalidate_dispatch_handles(t.metrics)
            handle = self._h_start_service
            if handle is None:
                handle = _DISPATCH_SITE.bind(t.metrics, ("start_service",))
                self._h_start_service = handle
            handle.pending += 1
        info = self._resolve_service(intent)
        if info is None:
            # Matching the framework: unknown service logs and returns null.
            self._logcat.w(
                TAG_ACTIVITY_MANAGER,
                f"Unable to start service {intent.to_log_string()}: not found",
            )
            return None, DispatchResult(delivered=False)
        self._enforce_permissions(caller_package, intent, info)
        result = self._deliver_to_service(info, intent, bind=False)
        return info.name, result

    def send_broadcast(self, caller_package: str, intent: Intent) -> int:
        """``Context.sendBroadcast``: deliver to matching receivers.

        QGJ proper targets activities and services ("they form the large
        majority of the components on AW apps"), but its ancestor JJB also
        fuzzed broadcast receivers; this entry point keeps that capability.
        Explicit broadcasts go to the named receiver; implicit ones to every
        matching exported receiver.  Returns the number of receivers that
        got the intent.
        """
        self._count_dispatch("send_broadcast")
        if not self._permissions.may_send_action(caller_package, intent.action):
            detail = (
                f"broadcasting protected action {intent.action} from {caller_package}"
            )
            self._logcat.security_denial(pid=0, detail=detail)
            raise SecurityException(f"Permission Denial: {detail}")
        if intent.component is not None:
            info = self._packages.resolve_component(intent.component)
            if info is None or info.kind != ComponentKind.RECEIVER:
                return 0
            targets = [info]
        else:
            targets = [
                info
                for info in self._packages.all_components(kinds=(ComponentKind.RECEIVER,))
                if info.exported
                and any(f.matches(intent) for f in info.intent_filters)
            ]
        delivered = 0
        for info in targets:
            try:
                self._enforce_permissions(caller_package, intent, info)
            except SecurityException:
                continue
            proc = self._processes.get_or_start(info.effective_process(), info.package)
            component = self._get_or_create(info, proc)
            if not isinstance(component, BroadcastReceiver):
                continue

            def receive(receiver=component):
                receiver.perform_receive(intent)

            result = self._run_contained(proc, info, component, receive, "receiver")
            if result.delivered:
                delivered += 1
        return delivered

    def bind_service(self, caller_package: str, intent: Intent) -> bool:
        """``Context.bindService``: True when binding was initiated."""
        self._count_dispatch("bind_service")
        info = self._resolve_service(intent)
        if info is None:
            return False
        self._enforce_permissions(caller_package, intent, info)
        result = self._deliver_to_service(info, intent, bind=True)
        return result.delivered and not result.crashed

    def force_stop(self, package: str) -> int:
        killed = self._processes.kill_package(package)
        self._live = {
            key: comp for key, comp in self._live.items() if comp.info.package != package
        }
        if killed:
            self._logcat.i(TAG_ACTIVITY_MANAGER, f"Force stopping {package}: {killed} processes")
        return killed

    def live_component(self, info: ComponentInfo) -> Optional[Component]:
        """The live runtime instance for *info*, if its process is alive."""
        key = (info.effective_process(), info.name.flatten_to_string())
        comp = self._live.get(key)
        if comp is None:
            return None
        proc = self._processes.get(info.effective_process())
        if proc is None:
            del self._live[key]
            return None
        return comp

    def reset_runtime_state(self) -> None:
        """Drop live component instances (used across reboots)."""
        self._live.clear()

    # -- resolution ---------------------------------------------------------------
    def _resolve_activity(self, intent: Intent) -> Optional[ComponentInfo]:
        if intent.component is not None:
            info = self._packages.resolve_component(intent.component)
            if info is None or info.kind != ComponentKind.ACTIVITY:
                return None
            return info
        candidates = self._packages.query_intent_activities(intent)
        return candidates[0] if candidates else None

    def _resolve_service(self, intent: Intent) -> Optional[ComponentInfo]:
        if intent.component is None:
            # Android 5+ forbids implicit service intents.
            raise SecurityException(
                f"Service Intent must be explicit: {intent.to_log_string()}"
            )
        info = self._packages.resolve_component(intent.component)
        if info is None or info.kind != ComponentKind.SERVICE:
            return None
        return info

    # -- permission enforcement --------------------------------------------------
    def _enforce_permissions(
        self, caller_package: str, intent: Intent, info: ComponentInfo
    ) -> None:
        # PermissionManager.may_send_action, inlined: this runs once per
        # injected intent, and most actions are not protected.
        action = intent.action
        if action in PROTECTED_ACTIONS and not self._permissions.is_privileged(caller_package):
            detail = (
                f"broadcasting protected action {action} from {caller_package}"
                f" to {info.name.flatten_to_short_string()}"
            )
            self._logcat.security_denial(pid=0, detail=detail)
            raise SecurityException(f"Permission Denial: {detail}")
        same_package = caller_package == info.package
        if (
            not info.exported
            and not same_package
            and not self._permissions.is_privileged(caller_package)
        ):
            detail = (
                f"starting {intent.to_log_string()} from {caller_package}"
                f" not exported from uid of {info.package}"
            )
            self._logcat.security_denial(pid=0, detail=detail)
            raise SecurityException(f"Permission Denial: {detail}")
        if info.permission is not None and not same_package:
            granted = (
                self._permissions.check_permission(caller_package, info.permission)
                == PERMISSION_GRANTED
            )
            if not granted:
                detail = (
                    f"starting {intent.to_log_string()} from {caller_package}"
                    f" requires {info.permission}"
                )
                self._logcat.security_denial(pid=0, detail=detail)
                raise SecurityException(f"Permission Denial: {detail}")

    # -- delivery -----------------------------------------------------------------
    def _instantiate(self, info: ComponentInfo, context: Context) -> Component:
        if info.behavior_key is not None:
            factory = self._factories.get(info.behavior_key)
            if factory is not None:
                return factory(info, context)
        return runtime_class_for(info.kind)(info, context)

    def _get_or_create(self, info: ComponentInfo, proc: ProcessRecord) -> Component:
        key = (proc.name, info.name.flatten_to_string())
        comp = self._live.get(key)
        if comp is None:
            context = Context(info.package, self._device)
            comp = self._instantiate(info, context)
            self._live[key] = comp
        return comp

    def _deliver_to_activity(self, info: ComponentInfo, intent: Intent) -> DispatchResult:
        proc = self._processes.get_or_start(info.effective_process(), info.package)
        component = self._get_or_create(info, proc)
        if not isinstance(component, Activity):
            raise ActivityNotFoundException(
                f"{info.name} is not an activity"
            )
        self._logcat.i(
            TAG_ACTIVITY_MANAGER,
            f"START u0 {{{intent.to_log_string()}}} from {proc.name}",
        )

        def lifecycle() -> None:
            if component.state == ActivityState.INITIALIZED:
                component.perform_create(intent)
                component.perform_start()
                component.perform_resume()
            elif component.state == ActivityState.RESUMED:
                component.perform_new_intent(intent)
            else:
                # Bring an existing (paused/stopped) instance back to front.
                component.perform_new_intent(intent)
                if component.state == ActivityState.PAUSED:
                    component.perform_resume()
                elif component.state == ActivityState.STOPPED:
                    component.perform_start()
                    component.perform_resume()

        result = self._run_contained(proc, info, component, lifecycle, "activity")
        if result.delivered and not result.crashed:
            self.foreground = info
        elif result.crashed and self.foreground is info:
            self.foreground = None
        return result

    def deliver_ui_event(self, kind: str, **params: object) -> DispatchResult:
        """Deliver a UI event to the foreground activity.

        Events with no focused window (or whose process died) are dropped,
        exactly like the input pipeline drops taps outside any window.
        """
        info = self.foreground
        if info is None:
            return DispatchResult(delivered=False)
        component = self.live_component(info)
        if component is None:
            self.foreground = None
            return DispatchResult(delivered=False)
        proc = self._processes.get(info.effective_process())
        if proc is None:
            self.foreground = None
            return DispatchResult(delivered=False)

        def handle() -> None:
            cost = component.on_ui_event(kind, **params)
            if isinstance(component, (Activity, Service)):
                component.handler_cost_ms += cost

        result = self._run_contained(proc, info, component, handle, "activity")
        if result.crashed and self.foreground is info:
            self.foreground = None
        return result

    def _deliver_to_service(
        self, info: ComponentInfo, intent: Intent, bind: bool
    ) -> DispatchResult:
        proc = self._processes.get_or_start(info.effective_process(), info.package)
        component = self._get_or_create(info, proc)
        if not isinstance(component, Service):
            self._logcat.w(TAG_ACTIVITY_MANAGER, f"{info.name} is not a service")
            return DispatchResult(delivered=False)

        def lifecycle() -> None:
            if component.state == ServiceState.INITIALIZED:
                component.perform_create()
            if bind:
                component.perform_bind(intent)
            else:
                component.perform_start_command(intent, component.start_count + 1)

        return self._run_contained(proc, info, component, lifecycle, "service")

    def _run_contained(
        self,
        proc: ProcessRecord,
        info: ComponentInfo,
        component: Component,
        lifecycle: Callable[[], None],
        kind: str,
    ) -> DispatchResult:
        """Run *lifecycle* on the main thread with crash/ANR containment."""
        cost_before = getattr(component, "handler_cost_ms", 0.0)
        task = MainThreadTask(
            description=f"{kind}:{info.name.flatten_to_short_string()}",
            run=lifecycle,
            duration_ms=0.5,
        )
        self._dispatch_depth += 1
        try:
            thrown = proc.run_main_task(task)
        finally:
            self._dispatch_depth -= 1
        if thrown is not None:
            if not thrown.frames:
                thrown.frames = [
                    # Give anonymous throwables a plausible app frame.
                    *component._throw_site("handleIntent", 1),
                ]
            thrown.with_frames(thrown.frames[:3], component_kind=kind)
            self._logcat.fatal_exception(proc.name, proc.pid, thrown)
            self._logcat.i(
                TAG_ACTIVITY_MANAGER,
                f"Process {proc.name} (pid {proc.pid}) has died",
            )
            self._drop_live_instances(proc)
            for hooks in self._health_hooks:
                hooks.on_app_crash(proc, info, thrown)
            return DispatchResult(delivered=True, crashed=True, throwable=thrown)

        cost = getattr(component, "handler_cost_ms", 0.0) - cost_before
        if cost > self.anr_timeout_ms:
            reason = (
                f"executing {kind} {info.name.flatten_to_short_string()}"
                f" (blocked {cost:.0f}ms)"
            )
            self._logcat.anr(proc.name, proc.pid, info.name.flatten_to_short_string(), reason)
            proc.record_anr(task.description, cost)
            t = self._device.runtime.telemetry
            if t.enabled:
                _ANR_SITE.bind(t.metrics, (info.package,)).observe(cost)
            # The blocked main thread stalls the process for the whole window.
            proc.clock.sleep(min(cost, 4 * self.anr_timeout_ms))
            for hooks in self._health_hooks:
                hooks.on_app_anr(proc, info, reason)
            return DispatchResult(delivered=True, anr=True)
        return DispatchResult(delivered=True)

    def _drop_live_instances(self, proc: ProcessRecord) -> None:
        self._live = {
            key: comp for key, comp in self._live.items() if key[0] != proc.name
        }
