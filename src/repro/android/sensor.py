"""The sensor stack: ``SensorManager`` over a native ``SensorService``.

Health and fitness apps -- the category the paper singles out -- read the
wearable's sensors either through the Google Fit API or directly through
``SensorManager``.  The first of the paper's two device reboots happened on
this path:

    "a sequence of malformed intents to a health app, which interacts with
    heart rate sensor using SensorManager […] the application experienced
    unresponsiveness (ANR) which explains the SIGABRT sent by the system to
    shutdown the SensorService process /system/lib/libsensorservice.so.
    Since this is the core process which handles Sensor access on AW, the
    system was left in an unstable state and the device rebooted."

So the model is: apps register listeners with the native sensor service; if
a client process ANRs while holding a listener, its stalled connection wedges
the service's event queue and the system kills the service with SIGABRT.
Losing this *core native* service is what the system server's health model
treats as reboot-grade damage.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.android.jtypes import (
    DeadObjectException,
    IllegalArgumentException,
    sigabrt,
)
from repro.android.log import TAG_SENSOR, Logcat
from repro.android.process import ProcessRecord, ProcessTable

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.android.system_server import SystemServer

SENSOR_SERVICE_PROCESS = "/system/lib/libsensorservice.so"

# Sensor type constants (android.hardware.Sensor.TYPE_*).
TYPE_ACCELEROMETER = 1
TYPE_GYROSCOPE = 4
TYPE_HEART_RATE = 21
TYPE_STEP_COUNTER = 19
TYPE_STEP_DETECTOR = 18


@dataclasses.dataclass(frozen=True)
class Sensor:
    sensor_type: int
    name: str
    vendor: str = "repro"

    def __str__(self) -> str:
        return f"{self.name} (type={self.sensor_type})"


#: Sensors present on the simulated wearable.
WEARABLE_SENSORS = (
    Sensor(TYPE_ACCELEROMETER, "BMI160 Accelerometer"),
    Sensor(TYPE_GYROSCOPE, "BMI160 Gyroscope"),
    Sensor(TYPE_HEART_RATE, "PAH8001 Heart Rate"),
    Sensor(TYPE_STEP_COUNTER, "Step Counter"),
    Sensor(TYPE_STEP_DETECTOR, "Step Detector"),
)


@dataclasses.dataclass
class _Listener:
    client_process: str
    sensor_type: int


class SensorService:
    """The native sensor service process and its listener table."""

    def __init__(
        self, processes: ProcessTable, logcat: Logcat, runtime=None, clock=None
    ) -> None:
        self._processes = processes
        self._logcat = logcat
        self._sensors: Dict[int, Sensor] = {s.sensor_type: s for s in WEARABLE_SENSORS}
        self._listeners: List[_Listener] = []
        self.process = processes.get_or_start(
            SENSOR_SERVICE_PROCESS, package="android", is_system=True, is_native=True
        )
        self._system_server: Optional["SystemServer"] = None
        #: Chaos-plane access (``None`` for bare unit-test construction).
        self._runtime = runtime
        self._clock = clock

    def attach_system_server(self, system_server: "SystemServer") -> None:
        self._system_server = system_server

    # -- service side -----------------------------------------------------------
    @property
    def alive(self) -> bool:
        return self.process.alive

    def sensors(self) -> List[Sensor]:
        return list(self._sensors.values())

    def get_default_sensor(self, sensor_type: int) -> Optional[Sensor]:
        return self._sensors.get(sensor_type)

    def register_listener(self, client_process: str, sensor_type: int) -> None:
        if not self.alive:
            raise DeadObjectException("SensorService is dead")
        if sensor_type not in self._sensors:
            raise IllegalArgumentException(f"No sensor of type {sensor_type}")
        # Registrations happen inside app lifecycles, so the chaos hook
        # fires at any dispatch depth: a dead service mid-lifecycle is a
        # genuine app-visible failure (the paper's first reboot started on
        # exactly this path).  Corrupted replies silently drop or duplicate
        # the registration.
        if self._runtime is not None and self._clock is not None:
            plane = self._runtime.faults
            if plane.armed:
                plane.check_service(self._clock, "sensor")
                if plane.take_corruption(self._clock, "drop_listener"):
                    self._logcat.w(
                        TAG_SENSOR,
                        f"dropped listener registration: {client_process}"
                        f" -> type {sensor_type} (corrupted reply)",
                        pid=self.process.pid,
                    )
                    return
                if plane.take_corruption(self._clock, "dup_listener"):
                    self._listeners.append(_Listener(client_process, sensor_type))
                    self._logcat.w(
                        TAG_SENSOR,
                        f"duplicated listener registration: {client_process}"
                        f" -> type {sensor_type} (corrupted reply)",
                        pid=self.process.pid,
                    )
        self._listeners.append(_Listener(client_process, sensor_type))
        self._logcat.d(
            TAG_SENSOR,
            f"registered listener: {client_process} -> type {sensor_type}",
            pid=self.process.pid,
        )

    def unregister_all(self, client_process: str) -> int:
        before = len(self._listeners)
        self._listeners = [l for l in self._listeners if l.client_process != client_process]
        return before - len(self._listeners)

    def listeners_of(self, client_process: str) -> List[_Listener]:
        return [l for l in self._listeners if l.client_process == client_process]

    def has_listeners(self, client_process: str) -> bool:
        return any(l.client_process == client_process for l in self._listeners)

    # -- failure escalation -----------------------------------------------------
    def on_client_anr(self, client: ProcessRecord) -> bool:
        """An ANR'd client wedges the event queue; the system SIGABRTs us.

        Returns True when the service was killed (reboot-grade damage).
        """
        if not self.alive or not self.has_listeners(client.name):
            return False
        self._logcat.e(
            TAG_SENSOR,
            f"event queue stalled by unresponsive client {client.name}",
            pid=self.process.pid,
        )
        signal = sigabrt(
            SENSOR_SERVICE_PROCESS,
            reason=f"sensor event queue wedged by {client.name}",
        )
        self._logcat.native_crash(signal, pid=self.process.pid)
        self.process.kill("SIGABRT")
        self._listeners.clear()
        if self._system_server is not None:
            self._system_server.on_native_service_death("sensorservice", signal)
        return True

    def restart(self) -> None:
        """Bring the native service back after a reboot."""
        self._listeners.clear()
        self.process = self._processes.get_or_start(
            SENSOR_SERVICE_PROCESS, package="android", is_system=True, is_native=True
        )


class SensorManager:
    """The app-facing manager, scoped to one client package/process.

    Obtained through ``context.get_system_service("sensor")``; the device
    hands each caller a thin per-process view of the shared service.
    """

    def __init__(self, service: SensorService, client_process: str) -> None:
        self._service = service
        self._client_process = client_process

    def get_default_sensor(self, sensor_type: int) -> Optional[Sensor]:
        if not self._service.alive:
            raise DeadObjectException("SensorService is dead")
        return self._service.get_default_sensor(sensor_type)

    def register_listener(self, sensor: Sensor) -> None:
        self._service.register_listener(self._client_process, sensor.sensor_type)

    def register_listener_by_type(self, sensor_type: int) -> None:
        self._service.register_listener(self._client_process, sensor_type)

    def unregister_all(self) -> int:
        return self._service.unregister_all(self._client_process)
