"""A bootable simulated Android device.

``Device`` wires every substrate piece together -- clock, logcat, permission
model, package manager, process table, activity manager, system server and
sensor stack -- into the thing the experiments hold in one hand: something
you can install apps on, throw intents at, and pull logs from over
:mod:`repro.android.adb`.

:class:`repro.wear.device.WearDevice` extends this with the Wear-specific
services (Ambient, Google Fit, complications, the Wearable MessageAPI).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.android.activity_manager import ActivityManager
from repro.android.clock import Clock
from repro.android.log import TAG_BOOT, TAG_SYSTEM, Logcat
from repro.android.package_manager import PackageInfo, PackageManager
from repro.android.permissions import PermissionManager
from repro.android.process import ProcessTable
from repro.android.runtime import RuntimeContext
from repro.android.sensor import SensorManager, SensorService
from repro.android.system_server import SystemServer

#: Virtual time a reboot costs (boot animation and all).
BOOT_DURATION_MS = 30_000.0

#: Virtual time a system_server bounce costs -- services restart in place,
#: far cheaper than a full reboot (no kernel, no boot animation).
SYSTEM_RESTART_DOWNTIME_MS = 5_000.0

#: Provider signature for named system services; receives the caller package.
ServiceProvider = Callable[["Device", str], Any]


def _sensor_service_provider(device: "Device", package: str) -> SensorManager:
    """Module-level provider so ``Device`` state stays picklable."""
    return SensorManager(device.sensor_service, package)


class Device:
    """One simulated Android device (phone or, via subclass, wearable)."""

    #: True once :meth:`shutdown` has run.
    shut_down = False

    def __init__(
        self,
        name: str = "device",
        android_version: str = "7.1.1",
        logcat_capacity: Optional[int] = None,
        reboot_threshold: Optional[float] = None,
        runtime: Optional[RuntimeContext] = None,
        clock: Optional[Clock] = None,
    ) -> None:
        self.name = name
        self.android_version = android_version
        #: One shared context per device tree: every hook site below asks
        #: this object (not the process-wide module) for its planes.  Pass a
        #: pre-bound context to scope the device to a shard (repro.farm);
        #: the default unbound context falls back to the global handles.
        self.runtime = runtime if runtime is not None else RuntimeContext()
        #: The device's virtual timeline.  A caller may supply the clock --
        #: the fleet scheduler does, so it can advance a multiplexed pair's
        #: time between that pair's resumptions.
        self.clock = clock if clock is not None else Clock()
        self.logcat = Logcat(self.clock, capacity=logcat_capacity, runtime=self.runtime)
        self.permissions = PermissionManager()
        self.packages = PackageManager(self.permissions)
        self.packages.attach_device(self)
        self.processes = ProcessTable(self.clock, logcat=self.logcat, runtime=self.runtime)
        self.activity_manager = ActivityManager(
            device=self,
            packages=self.packages,
            permissions=self.permissions,
            processes=self.processes,
            logcat=self.logcat,
        )
        kwargs = {} if reboot_threshold is None else {"reboot_threshold": reboot_threshold}
        self.system_server = SystemServer(self, self.clock, self.logcat, **kwargs)
        self.activity_manager.add_health_hooks(self.system_server)
        self.sensor_service = SensorService(
            self.processes, self.logcat, runtime=self.runtime, clock=self.clock
        )
        self.system_server.attach_sensor_service(self.sensor_service)
        self._service_providers: Dict[str, ServiceProvider] = {}
        self.register_system_service("sensor", _sensor_service_provider)
        self.boot_count = 1
        #: True only while a reboot is tearing processes down.
        self.rebooting = False
        self.logcat.i(TAG_BOOT, f"Starting Android runtime ({android_version}) on {name}")
        self.logcat.i(TAG_BOOT, "Boot completed")

    # -- system services ----------------------------------------------------------
    def register_system_service(self, service_name: str, provider: ServiceProvider) -> None:
        self._service_providers[service_name] = provider

    def get_system_service(self, service_name: str, package: str) -> Any:
        provider = self._service_providers.get(service_name)
        if provider is None:
            return None
        return provider(self, package)

    def has_system_service(self, service_name: str) -> bool:
        return service_name in self._service_providers

    # -- app management ------------------------------------------------------------
    def install(self, package: PackageInfo) -> None:
        self.packages.install(package)
        self.logcat.i("PackageManager", f"Package {package.package} installed")

    def install_all(self, packages) -> None:
        for package in packages:
            self.install(package)

    # -- reboot ---------------------------------------------------------------------
    def perform_reboot(self, reason: str) -> None:
        """Reboot the device (called by the system server's escalation)."""
        self.rebooting = True
        self.logcat.reboot_marker(reason)
        self.processes.clear()
        self.activity_manager.reset_runtime_state()
        self.clock.sleep(BOOT_DURATION_MS)
        self.sensor_service.restart()
        self.system_server.after_reboot()
        self.boot_count += 1
        self._after_reboot()
        self.rebooting = False

    def restart_system_server(self, reason: str) -> None:
        """Bounce system_server in place (chaos plane's SYSTEM_RESTART).

        Every service restarts and registered binders/listeners must
        re-attach, but the device never goes down: no reboot marker, and
        ``boot_count`` is untouched -- the paper's reboot counts and the
        fuzzer's reboot handling only react to real reboots.
        """
        self.logcat.w(TAG_SYSTEM, f"system_server died: {reason}")
        self.processes.clear()
        self.activity_manager.reset_runtime_state()
        self.activity_manager.foreground = None
        self.clock.sleep(SYSTEM_RESTART_DOWNTIME_MS)
        self.sensor_service.restart()
        self.system_server.on_soft_restart(reason)
        self._after_reboot()

    def _after_reboot(self) -> None:
        """Subclass hook: restart device-family specific services."""

    # -- end of life ----------------------------------------------------------------
    def shutdown(self) -> None:
        """Power the device off for good, silently.

        Drops every back-reference the device's construction wired: each
        process record's death recipients and queue, the live component
        instances (and their contexts), the clock's pending callbacks, the
        system server's link to the sensor service, and the device's own
        references to its subsystems.  Once its owner lets go, reference
        counting frees the whole tree at once instead of leaving it to the
        cyclic collector.  Nothing runs: no log record, no app, service
        or death-recipient callback, no clock advance, no telemetry.  The
        device cannot be used again -- its subsystems are gone, so any later
        call raises ``AttributeError`` -- and a second shutdown does nothing.
        """
        if self.shut_down:
            return
        self.processes.discard()
        self.activity_manager.reset_runtime_state()
        self.clock.cancel_all()
        self.system_server.detach_sensor_service()
        name = self.name
        self.__dict__.clear()
        self.name = name
        self.shut_down = True

    # -- adb ------------------------------------------------------------------------
    @property
    def adb(self):
        """Lazy adb endpoint (import-cycle-free)."""
        from repro.android.adb import Adb

        return Adb(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.shut_down:
            return f"<{type(self).__name__} {self.name} shut down>"
        return f"<Device {self.name} android={self.android_version} boots={self.boot_count}>"
