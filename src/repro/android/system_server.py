"""The system server: health tracking, software aging, and reboots.

The paper's most severe finding is that a *wearable can be rebooted by
unprivileged, malformed intents* -- and that neither observed reboot was due
to a single "deadly" intent:

    "These reboots did not occur in response to a single deadly intent but
    rather at specific states of the device due to escalation of multiple
    errors.  This would indicate that the malformed intents caused error
    accumulation, which eventually rebooted the system."

This module implements that *software-aging* model explicitly:

* every crash and ANR deposits a decaying error weight into
  :class:`AgingModel` (exponential decay, configurable half-life);
* two escalation paths can convert accumulated damage into a reboot,
  matching the paper's post-mortems:

  1. **SensorService path** -- an ANR in a client holding sensor listeners
     wedges the native service; the system SIGABRTs it; losing a core
     native service on an aged system reboots the device.
  2. **Ambient path** -- a crash-looping component that should bind the
     Ambient service starves it; on an aged system the system process takes
     a SIGSEGV and the device reboots.
"""

from __future__ import annotations

import dataclasses
import math
from typing import TYPE_CHECKING, Dict, List, Optional, Set

from repro.android.clock import Clock
from repro.android.component import ComponentInfo
from repro.android.jtypes import NativeSignal, Throwable, sigsegv
from repro.android.log import TAG_SYSTEM, TAG_WATCHDOG, Logcat
from repro.android.process import ProcessRecord

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.android.device import Device
    from repro.android.sensor import SensorService

SYSTEM_SERVER_PROCESS = "system_server"

# Aging weights (dimensionless damage units).
WEIGHT_CRASH = 1.0
WEIGHT_CRASH_BUILTIN = 2.0
WEIGHT_ANR = 3.0
WEIGHT_CRASH_LOOP_BONUS = 2.0

# Escalation thresholds.
DEFAULT_AGING_HALF_LIFE_MS = 60_000.0
DEFAULT_REBOOT_THRESHOLD = 8.0
CRASH_LOOP_COUNT = 3
CRASH_LOOP_WINDOW_MS = 30_000.0


@dataclasses.dataclass
class AgingEvent:
    time_ms: float
    weight: float
    source: str


class AgingModel:
    """Exponentially decaying accumulation of error weight."""

    def __init__(self, clock: Clock, half_life_ms: float = DEFAULT_AGING_HALF_LIFE_MS) -> None:
        self._clock = clock
        self.half_life_ms = half_life_ms
        self._events: List[AgingEvent] = []

    def deposit(self, weight: float, source: str) -> None:
        if weight < 0:
            raise ValueError(f"negative aging weight: {weight}")
        self._events.append(AgingEvent(self._clock.now_ms(), weight, source))
        # Keep the window bounded: events older than 10 half-lives are
        # negligible (< 0.1% of their weight).
        horizon = self._clock.now_ms() - 10 * self.half_life_ms
        if len(self._events) > 256:
            self._events = [e for e in self._events if e.time_ms >= horizon]

    def score(self) -> float:
        now = self._clock.now_ms()
        total = 0.0
        for event in self._events:
            age = now - event.time_ms
            total += event.weight * math.pow(0.5, age / self.half_life_ms)
        return total

    def reset(self) -> None:
        self._events.clear()

    def event_count(self) -> int:
        return len(self._events)


@dataclasses.dataclass
class RebootRecord:
    """One device reboot, for the analysis and the post-mortem examples."""

    time_ms: float
    reason: str
    triggering_component: Optional[str]
    aging_score: float
    signal: Optional[NativeSignal]


class SystemServer:
    """Simulated ``system_server`` with watchdog and aging-based escalation."""

    def __init__(
        self,
        device: "Device",
        clock: Clock,
        logcat: Logcat,
        reboot_threshold: float = DEFAULT_REBOOT_THRESHOLD,
        aging_half_life_ms: float = DEFAULT_AGING_HALF_LIFE_MS,
    ) -> None:
        self._device = device
        self._clock = clock
        self._logcat = logcat
        self.reboot_threshold = reboot_threshold
        self.aging = AgingModel(clock, half_life_ms=aging_half_life_ms)
        self.process = device.processes.get_or_start(
            SYSTEM_SERVER_PROCESS, package="android", is_system=True
        )
        self.reboots: List[RebootRecord] = []
        #: Packages whose components are expected to bind the Ambient service.
        self._ambient_binders: Set[str] = set()
        self._ambient_bind_failures: Dict[str, int] = {}
        #: (component, time) of recent crashes for loop detection.
        self._recent_crashes: Dict[str, List[float]] = {}
        self._sensor_service: Optional["SensorService"] = None

    # -- wiring -----------------------------------------------------------------
    def attach_sensor_service(self, sensor_service: "SensorService") -> None:
        self._sensor_service = sensor_service
        sensor_service.attach_system_server(self)

    def register_ambient_binder(self, package: str) -> None:
        """Mark *package* as one whose activities bind the Ambient service."""
        self._ambient_binders.add(package)

    # -- health hooks (called by the activity manager) ----------------------------
    def on_app_crash(
        self, process: ProcessRecord, info: ComponentInfo, throwable: Throwable
    ) -> None:
        package = self._device.packages.get_package(info.package)
        built_in = package is not None and package.is_built_in
        weight = WEIGHT_CRASH_BUILTIN if built_in else WEIGHT_CRASH
        component_key = info.name.flatten_to_string()
        loop = self._note_crash(component_key)
        if loop:
            weight += WEIGHT_CRASH_LOOP_BONUS
        self.aging.deposit(weight, source=f"crash:{component_key}")
        if loop and info.package in self._ambient_binders:
            self._on_ambient_bind_starvation(info)

    def on_app_anr(self, process: ProcessRecord, info: ComponentInfo, reason: str) -> None:
        self.aging.deposit(WEIGHT_ANR, source=f"anr:{info.name.flatten_to_string()}")
        if self._sensor_service is not None:
            self._sensor_service.on_client_anr(process)

    def on_start_failure(self, info: ComponentInfo, throwable: Throwable) -> None:
        self.aging.deposit(0.5, source=f"start-failure:{info.name.flatten_to_string()}")

    # -- escalation paths ---------------------------------------------------------
    def on_native_service_death(self, service_name: str, signal: NativeSignal) -> None:
        """A core native service died (e.g. SensorService SIGABRT)."""
        self._logcat.e(
            TAG_SYSTEM,
            f"core native service '{service_name}' died ({signal.signal}); system unstable",
            pid=self.process.pid,
        )
        self._reboot(
            reason=f"core native service {service_name} died with {signal.signal}",
            component=None,
            signal=signal,
        )

    def _on_ambient_bind_starvation(self, info: ComponentInfo) -> None:
        count = self._ambient_bind_failures.get(info.package, 0) + 1
        self._ambient_bind_failures[info.package] = count
        self._logcat.w(
            TAG_SYSTEM,
            f"unable to bind Ambient service: {info.package} crash-looping (attempt {count})",
            pid=self.process.pid,
        )
        if self.aging.score() >= self.reboot_threshold:
            signal = sigsegv(
                SYSTEM_SERVER_PROCESS,
                reason=f"ambient binding starved by {info.package}",
            )
            self._logcat.native_crash(signal, pid=self.process.pid)
            self._reboot(
                reason=f"SIGSEGV in system process (ambient bind starvation by {info.package})",
                component=info.name.flatten_to_string(),
                signal=signal,
            )

    def _note_crash(self, component_key: str) -> bool:
        """Record a crash; True when *component_key* is now crash-looping."""
        now = self._clock.now_ms()
        times = self._recent_crashes.setdefault(component_key, [])
        times.append(now)
        self._recent_crashes[component_key] = [
            t for t in times if now - t <= CRASH_LOOP_WINDOW_MS
        ]
        return len(self._recent_crashes[component_key]) >= CRASH_LOOP_COUNT

    # -- reboot -----------------------------------------------------------------
    def _reboot(
        self, reason: str, component: Optional[str], signal: Optional[NativeSignal]
    ) -> None:
        record = RebootRecord(
            time_ms=self._clock.now_ms(),
            reason=reason,
            triggering_component=component,
            aging_score=self.aging.score(),
            signal=signal,
        )
        self.reboots.append(record)
        self._logcat.w(TAG_WATCHDOG, f"WATCHDOG: rebooting: {reason}")
        self._device.perform_reboot(reason)

    def after_reboot(self) -> None:
        """Reset volatile state once the device has rebooted."""
        self.aging.reset()
        self._recent_crashes.clear()
        self._ambient_bind_failures.clear()
        self.process = self._device.processes.get_or_start(
            SYSTEM_SERVER_PROCESS, package="android", is_system=True
        )

    def on_soft_restart(self, reason: str) -> None:
        """system_server bounced in place (fault injection, not a reboot).

        Every service restarts and volatile health state resets -- the same
        post-restart world :meth:`after_reboot` rebuilds -- but the device
        itself never went down: no watchdog line, no reboot record, and the
        boot count is untouched.
        """
        self._logcat.w(
            TAG_SYSTEM,
            f"system_server restarting: {reason}",
            pid=self.process.pid,
        )
        self.after_reboot()

    # -- introspection ------------------------------------------------------------
    @property
    def reboot_count(self) -> int:
        return len(self.reboots)

    def health_summary(self) -> Dict[str, float]:
        return {
            "aging_score": self.aging.score(),
            "reboots": float(len(self.reboots)),
            "tracked_components": float(len(self._recent_crashes)),
        }
