"""The Wearable network: nodes, the MessageAPI, and the DataAPI.

QGJ is a *two-part* tool: QGJ Mobile on the phone orchestrates, QGJ Wear on
the watch injects.  The paper's Fig. 1a shows the protocol -- the phone
retrieves the component list (①), sends the chosen target and campaign over
the Android Wear **MessageAPI** (②), the wear app forwards it to the fuzzer
library (③) which injects locally (④), and the summary travels back the same
way.  This module provides that transport:

* :class:`BluetoothLink` -- the (virtual) radio between exactly two paired
  nodes, with latency and a connect/disconnect state;
* :class:`MessageClient` -- fire-and-forget byte messages addressed by node
  id and path (``MessageApi`` in the real SDK);
* :class:`DataClient` -- a synchronised key/value store (``DataApi``), used
  for the bulk result summary.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Tuple

from repro.android.clock import Clock
from repro.android.jtypes import IllegalStateException
from repro.android.runtime import RuntimeContext
from repro.wear.compat import API_SEND_REQUEST, CompatMatrix, require_api

#: Result codes mirrored from the Wearable API.
SUCCESS = 0
ERROR_DISCONNECTED = 4000
ERROR_UNKNOWN_NODE = 4001

#: QGJ's own protocol namespace on the DataAPI/MessageAPI.  Both halves of
#: the harness ship together, so compat deltas never degrade these paths --
#: degrading them would fail the *tool*, not the apps under study.
HARNESS_PATH_PREFIX = "/qgj/"


@dataclasses.dataclass(frozen=True)
class NodeId:
    """Opaque wearable node identifier."""

    value: str

    def __str__(self) -> str:
        return self.value


@dataclasses.dataclass
class MessageEvent:
    """One received MessageAPI message."""

    source_node: NodeId
    path: str
    payload: bytes
    time_ms: float


@dataclasses.dataclass
class DataItem:
    """One synchronised DataAPI item."""

    path: str
    data: Dict[str, object]
    time_ms: float
    source_node: NodeId


MessageListener = Callable[[MessageEvent], None]
DataListener = Callable[[DataItem], None]


class WearableNode:
    """One endpoint of the wearable network (a phone or a watch)."""

    def __init__(
        self,
        node_id: str,
        clock: Clock,
        runtime: Optional[RuntimeContext] = None,
    ) -> None:
        self.node_id = NodeId(node_id)
        self.clock = clock
        #: Chaos-plane access for compat deltas on this node's traffic.
        self.runtime = runtime if runtime is not None else RuntimeContext()
        self._message_listeners: List[Tuple[str, MessageListener]] = []
        self._data_listeners: List[Tuple[str, DataListener]] = []
        self._data_items: Dict[str, DataItem] = {}
        self.link: Optional["BluetoothLink"] = None

    # -- listener registration ---------------------------------------------------
    def add_message_listener(self, path_prefix: str, listener: MessageListener) -> None:
        self._message_listeners.append((path_prefix, listener))

    def add_data_listener(self, path_prefix: str, listener: DataListener) -> None:
        self._data_listeners.append((path_prefix, listener))

    # -- delivery (called by the link) ---------------------------------------------
    def deliver_message(self, event: MessageEvent) -> int:
        matched = 0
        for prefix, listener in list(self._message_listeners):
            if event.path.startswith(prefix):
                listener(event)
                matched += 1
        return matched

    def deliver_data(self, item: DataItem) -> None:
        self._data_items[item.path] = item
        for prefix, listener in list(self._data_listeners):
            if item.path.startswith(prefix):
                listener(item)

    def get_data_item(self, path: str) -> Optional[DataItem]:
        return self._data_items.get(path)

    def data_items(self) -> List[DataItem]:
        return sorted(self._data_items.values(), key=lambda item: item.path)

    def detach(self) -> None:
        """Drop every listener and this node's link (device shutdown).

        The link is left disconnected, so a peer still running sees a
        powered-off node rather than delivering into a dead one.
        """
        self._message_listeners.clear()
        self._data_listeners.clear()
        if self.link is not None:
            self.link.disconnect()
            self.link = None


class BluetoothLink:
    """A point-to-point link between a phone node and a watch node."""

    def __init__(
        self,
        a: WearableNode,
        b: WearableNode,
        latency_ms: float = 40.0,
        compat: Optional[CompatMatrix] = None,
    ) -> None:
        if a.node_id == b.node_id:
            raise ValueError("cannot link a node to itself")
        self.a = a
        self.b = b
        self.latency_ms = latency_ms
        #: Pinned API levels of this pair (``None`` = matched pair).
        self.compat = compat
        self.connected = True
        self.messages_carried = 0
        a.link = self
        b.link = self

    def peer_of(self, node: WearableNode) -> WearableNode:
        if node is self.a:
            return self.b
        if node is self.b:
            return self.a
        raise ValueError(f"{node.node_id} is not an endpoint of this link")

    def disconnect(self) -> None:
        self.connected = False

    def reconnect(self) -> None:
        self.connected = True


class MessageClient:
    """MessageAPI bound to one node."""

    def __init__(self, node: WearableNode) -> None:
        self._node = node

    def connected_nodes(self) -> List[NodeId]:
        link = self._node.link
        if link is None or not link.connected:
            return []
        return [link.peer_of(self._node).node_id]

    def send_message(self, target: NodeId, path: str, payload: bytes) -> int:
        """Send; returns a Wearable API status code."""
        if not path.startswith("/"):
            raise IllegalStateException(f"MessageAPI path must start with '/': {path!r}")
        link = self._node.link
        if link is None or not link.connected:
            return ERROR_DISCONNECTED
        peer = link.peer_of(self._node)
        if peer.node_id != target:
            return ERROR_UNKNOWN_NODE
        self._node.clock.sleep(link.latency_ms)
        link.messages_carried += 1
        peer.deliver_message(
            MessageEvent(
                source_node=self._node.node_id,
                path=path,
                payload=payload,
                time_ms=self._node.clock.now_ms(),
            )
        )
        return SUCCESS

    def send_request(self, target: NodeId, path: str, payload: bytes) -> int:
        """Request/ack messaging (Wear 2.0 ``sendRequest``): version-gated.

        On a skewed pair the method does not exist on the older half, so
        the gate raises :class:`~repro.faults.errors.CompatMismatchError`
        before any traffic moves.
        """
        link = self._node.link
        require_api(
            link.compat if link is not None else None,
            "MessageClient.sendRequest",
            API_SEND_REQUEST,
        )
        return self.send_message(target, path, payload)


class DataClient:
    """DataAPI bound to one node: writes replicate to the peer."""

    def __init__(self, node: WearableNode) -> None:
        self._node = node

    def put_data_item(self, path: str, data: Dict[str, object]) -> int:
        if not path.startswith("/"):
            raise IllegalStateException(f"DataAPI path must start with '/': {path!r}")
        item = DataItem(
            path=path,
            data=dict(data),
            time_ms=self._node.clock.now_ms(),
            source_node=self._node.node_id,
        )
        self._node.deliver_data(item)
        link = self._node.link
        if link is not None and link.connected:
            if not path.startswith(HARNESS_PATH_PREFIX):
                plane = self._node.runtime.faults
                if plane.armed and plane.take_compat_delta(self._node.clock):
                    # Behavioral delta: the skewed peer rejects the newer
                    # serialization.  The local write sticks, replication
                    # is dropped -- the caller sees a disconnected-style
                    # status, exactly how the real API surfaces it.
                    return ERROR_DISCONNECTED
            self._node.clock.sleep(link.latency_ms)
            link.peer_of(self._node).deliver_data(item)
            return SUCCESS
        return ERROR_DISCONNECTED

    def get_data_item(self, path: str) -> Optional[DataItem]:
        return self._node.get_data_item(path)
