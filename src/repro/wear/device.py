"""Wear and phone device models, and pairing.

The paper's test beds were:

* **QGJ-Master study** -- an LG Nexus 4 phone paired over Bluetooth with a
  Moto 360 running Android Wear 2.0;
* **QGJ-UI study** -- a Nexus 6 phone paired with an Android Watch
  *emulator* (API 25), chosen to isolate core AW functionality from vendor
  extensions and screen-geometry differences.

:class:`WearDevice` carries the Wear-specific system services (ambient,
Google Fit, complications, notifications, the wearable node), a round
400×400 screen, and an ``is_emulator`` flag that drops the vendor layer.
:class:`PhoneDevice` is a plain Android handset with a wearable node so the
two can pair.
"""

from __future__ import annotations

from typing import Optional

from repro.android.device import Device
from repro.wear.ambient import AmbientService
from repro.wear.compat import CompatMatrix
from repro.wear.complications import ComplicationManager
from repro.wear.fit import GoogleFitClient, GoogleFitService
from repro.wear.node import BluetoothLink, DataClient, MessageClient, WearableNode
from repro.wear.ui_widgets import NotificationStream


# Module-level service providers keep a device's state free of closures.
def _message_client_provider(device, package):
    return MessageClient(device.node)


def _data_client_provider(device, package):
    return DataClient(device.node)


def _ambient_provider(device, package):
    return device.ambient


def _fit_client_provider(device, package):
    return GoogleFitClient(device.fit_service, package)


def _complications_provider(device, package):
    return device.complications


class PhoneDevice(Device):
    """An Android handset (Nexus 4 / Nexus 6 class)."""

    def __init__(
        self,
        name: str = "phone",
        model: str = "Nexus 6",
        android_version: str = "7.1.1",
        **kwargs,
    ) -> None:
        super().__init__(name=name, android_version=android_version, **kwargs)
        self.model = model
        self.screen_width = 1440
        self.screen_height = 2560
        self.node = WearableNode(f"node-{name}", self.clock, runtime=self.runtime)
        self.register_system_service("wearable_message", _message_client_provider)
        self.register_system_service("wearable_data", _data_client_provider)

    def shutdown(self) -> None:
        if not self.shut_down:
            self.node.detach()
        super().shutdown()


class WearDevice(Device):
    """An Android Wear 2.0 smartwatch (Moto 360 class) or Watch emulator."""

    def __init__(
        self,
        name: str = "watch",
        model: str = "Moto 360",
        wear_version: str = "2.0",
        is_emulator: bool = False,
        **kwargs,
    ) -> None:
        super().__init__(name=name, android_version="7.1.1", **kwargs)
        self.model = model
        self.wear_version = wear_version
        self.is_emulator = is_emulator
        self.screen_width = 400
        self.screen_height = 400
        self.node = WearableNode(f"node-{name}", self.clock, runtime=self.runtime)
        self.ambient = AmbientService(self)
        self.fit_service = GoogleFitService(self.clock, self.sensor_service)
        self.complications = ComplicationManager()
        self.notifications = NotificationStream()
        self.register_system_service("ambient", _ambient_provider)
        self.register_system_service("fit", _fit_client_provider)
        self.register_system_service("complications", _complications_provider)
        self.register_system_service("wearable_message", _message_client_provider)
        self.register_system_service("wearable_data", _data_client_provider)
        #: The phone :func:`pair` linked this watch to; shut down with it.
        self.paired_phone: Optional[PhoneDevice] = None

    def _after_reboot(self) -> None:
        self.ambient.reset()
        self.fit_service.reset()

    def shutdown(self) -> None:
        """Shut down this watch and the phone :func:`pair` linked it to."""
        if not self.shut_down:
            if self.paired_phone is not None:
                self.paired_phone.shutdown()
            self.node.detach()
        super().shutdown()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.shut_down:
            return super().__repr__()
        flavour = "emulator" if self.is_emulator else self.model
        return f"<WearDevice {self.name} ({flavour}, AW {self.wear_version}) boots={self.boot_count}>"


def pair(
    phone: PhoneDevice,
    watch: WearDevice,
    latency_ms: float = 40.0,
    compat: Optional[CompatMatrix] = None,
) -> BluetoothLink:
    """Pair a phone and a watch over (virtual) Bluetooth.

    The two devices keep their own clocks in the simulator; pairing ties
    the link to the *watch* clock, which is the device under test and the
    one whose timeline every experiment reads.

    *compat* pins the pair's API levels; when omitted, the watch's armed
    fault plan supplies its matrix (if any), so ``--compat-skew`` reaches
    every pair the study builds without threading a parameter through.
    """
    if compat is None:
        plane = watch.runtime.faults
        if plane.armed:
            compat = plane.plan.compat
    link = BluetoothLink(phone.node, watch.node, latency_ms=latency_ms, compat=compat)
    watch.paired_phone = phone
    phone.logcat.i("WearableService", f"paired with {watch.node.node_id}")
    watch.logcat.i("WearableService", f"paired with {phone.node.node_id}")
    if compat is not None and compat.skew > 0:
        watch.logcat.w(
            "WearableService",
            f"API skew on pair: phone api{compat.phone_api}"
            f" / wear api{compat.wear_api}",
        )
    return link
