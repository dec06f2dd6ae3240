"""QGJ-Master: the QGJ Mobile and QGJ Wear apps and their protocol.

The paper's Fig. 1a operational workflow:

    ① QGJ Mobile retrieves the list of components (Activities, Services)
      from the Android wearable.
    ② The phone sends the chosen target and fuzzing campaign to the watch
      over the Android Wear MessageAPI.
    ③ QGJ Wear forwards the input to the Fuzzer library.
    ④ The fuzzer injects intents into the chosen target app component.

After a run, QGJ Wear ships the result summary back over the DataAPI and
QGJ Mobile renders it.  QGJ needs no root privilege: both apps are ordinary
packages and injection happens through public framework entry points.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Dict, List, Optional

from repro.android.package_manager import AppCategory, AppOrigin, PackageInfo
from repro.qgj.campaigns import Campaign
from repro.qgj.fuzzer import (
    QGJ_MOBILE_PACKAGE,
    QGJ_WEAR_PACKAGE,
    FuzzConfig,
    FuzzerLibrary,
    QUICK_CONFIG,
)
from repro.qgj.results import FuzzSummary
from repro.wear.device import PhoneDevice, WearDevice
from repro.wear.node import DataClient, MessageClient, MessageEvent, SUCCESS

# MessageAPI paths.
PATH_LIST_COMPONENTS = "/qgj/list-components"
PATH_COMPONENTS_REPLY = "/qgj/components"
PATH_START_FUZZ = "/qgj/start"
PATH_SUMMARY = "/qgj/summary"


def _qgj_package(package: str, label: str) -> PackageInfo:
    return PackageInfo(
        package=package,
        label=label,
        category=AppCategory.OTHER,
        origin=AppOrigin.THIRD_PARTY,
        components=[],
    )


@dataclasses.dataclass
class ComponentListing:
    """One row of the component inventory QGJ Mobile shows the user."""

    component: str
    kind: str
    package: str
    exported: bool


class QGJWear:
    """The wear-side QGJ app: listens for commands, runs the fuzzer."""

    def __init__(self, watch: WearDevice) -> None:
        self.watch = watch
        self.fuzzer = FuzzerLibrary(watch, sender_package=QGJ_WEAR_PACKAGE)
        self._message_client = MessageClient(watch.node)
        self._data_client = DataClient(watch.node)
        self.last_summary: Optional[FuzzSummary] = None
        if not watch.packages.is_installed(QGJ_WEAR_PACKAGE):
            watch.install(_qgj_package(QGJ_WEAR_PACKAGE, "QGJ Wear"))
        watch.node.add_message_listener(PATH_LIST_COMPONENTS, self._on_list_request)
        watch.node.add_message_listener(PATH_START_FUZZ, self._on_start_request)

    # -- protocol handlers ---------------------------------------------------------
    def _on_list_request(self, event: MessageEvent) -> None:
        listing = [
            {
                "component": info.name.flatten_to_string(),
                "kind": info.kind.value,
                "package": info.package,
                "exported": info.exported,
            }
            for info in self.watch.packages.all_components()
            if info.package not in (QGJ_WEAR_PACKAGE, QGJ_MOBILE_PACKAGE)
        ]
        payload = json.dumps(listing).encode()
        self._message_client.send_message(event.source_node, PATH_COMPONENTS_REPLY, payload)

    def _on_start_request(self, event: MessageEvent) -> None:
        request = json.loads(event.payload.decode())
        packages: List[str] = request["packages"]
        campaigns = [Campaign(c) for c in request.get("campaigns", "ABCD")]
        config = FuzzConfig(
            stride=request.get("stride", 1),
            strides={Campaign(k): v for k, v in request.get("strides", {}).items()}
            or None,
            max_intents_per_component=request.get("max_intents_per_component"),
            seed=request.get("seed", 0),
        )
        summary = self.fuzzer.fuzz_device(
            config=config, campaigns=campaigns, packages=packages
        )
        self.last_summary = summary
        self._data_client.put_data_item(PATH_SUMMARY, summary.to_wire())


class QGJMobile:
    """The phone-side QGJ app: the operator's console."""

    def __init__(self, phone: PhoneDevice, watch_node_id) -> None:
        self.phone = phone
        self.watch_node_id = watch_node_id
        self._message_client = MessageClient(phone.node)
        self._data_client = DataClient(phone.node)
        self.component_listing: List[ComponentListing] = []
        self.last_summary: Optional[Dict[str, object]] = None
        if not phone.packages.is_installed(QGJ_MOBILE_PACKAGE):
            phone.install(_qgj_package(QGJ_MOBILE_PACKAGE, "QGJ Mobile"))
        phone.node.add_message_listener(PATH_COMPONENTS_REPLY, self._on_components_reply)
        phone.node.add_data_listener(PATH_SUMMARY, self._on_summary)

    # -- step 1: component inventory -------------------------------------------------
    def refresh_components(self) -> List[ComponentListing]:
        status = self._message_client.send_message(
            self.watch_node_id, PATH_LIST_COMPONENTS, b""
        )
        if status != SUCCESS:
            raise ConnectionError(f"wearable unreachable (status {status})")
        return self.component_listing

    def _on_components_reply(self, event: MessageEvent) -> None:
        rows = json.loads(event.payload.decode())
        self.component_listing = [
            ComponentListing(
                component=row["component"],
                kind=row["kind"],
                package=row["package"],
                exported=row["exported"],
            )
            for row in rows
        ]

    def packages_on_watch(self) -> List[str]:
        return sorted({row.package for row in self.component_listing})

    # -- step 2: start a fuzzing session ---------------------------------------------
    def start_fuzz(
        self,
        packages: List[str],
        campaigns: str = "ABCD",
        config: FuzzConfig = QUICK_CONFIG,
    ) -> Dict[str, object]:
        """Ask QGJ Wear to fuzz *packages*; returns the wire summary."""
        request = {
            "packages": packages,
            "campaigns": campaigns,
            "stride": config.stride,
            "strides": {c.value: s for c, s in (config.strides or {}).items()},
            "max_intents_per_component": config.max_intents_per_component,
            "seed": config.seed,
        }
        # Drop any previous run's summary first: a run that fails to report
        # must raise below, not silently return stale results.
        self.last_summary = None
        status = self._message_client.send_message(
            self.watch_node_id, PATH_START_FUZZ, json.dumps(request).encode()
        )
        if status != SUCCESS:
            raise ConnectionError(f"wearable unreachable (status {status})")
        if self.last_summary is None:
            raise RuntimeError("no summary received from the wearable")
        return self.last_summary

    def _on_summary(self, item) -> None:
        self.last_summary = item.data

    def render_summary(self) -> str:
        if self.last_summary is None:
            return "no fuzz run yet"
        summary = self.last_summary
        lines = [
            f"QGJ run against {summary['device']}",
            f"  intents sent:        {summary['total_sent']}",
            f"  security exceptions: {summary['total_security_exceptions']}",
            f"  crashes observed:    {summary['total_crashes_seen']}",
            f"  device reboots:      {summary['total_reboots']}",
        ]
        return "\n".join(lines)


def deploy(phone: PhoneDevice, watch: WearDevice) -> tuple:
    """Install QGJ on both paired devices; returns (mobile, wear) apps."""
    wear_app = QGJWear(watch)
    mobile_app = QGJMobile(phone, watch.node.node_id)
    return mobile_app, wear_app
