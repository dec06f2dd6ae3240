"""Binder IPC: remote handles, transactions, and death notification.

Only the slice the study needs is modelled: a client holds an
:class:`IBinder` to an object living in some process; transacting on it when
that process has died raises ``DeadObjectException``.  The paper ties
``android.os.DeadObjectException`` to the *unresponsive* manifestation and
notes it "hints that garbage collection can have the undesirable effect" --
our behaviour models and the sensor stack use this channel for exactly that
kind of propagation.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.android.jtypes import DeadObjectException, IllegalArgumentException, Throwable
from repro.android.process import ProcessRecord
from repro.telemetry.metrics import BINDER_TRANSACTIONS
from repro.telemetry.record import CounterSite

#: One site shared by every binder handle; series are bound per
#: (descriptor, outcome) pair on first use.
_TRANSACTIONS_SITE = CounterSite(
    BINDER_TRANSACTIONS,
    "Binder transactions, by interface descriptor and outcome.",
    ("descriptor", "outcome"),
)


class IBinder:
    """A handle to an object hosted in *owner_process*."""

    def __init__(self, descriptor: str, owner_process: ProcessRecord) -> None:
        self.descriptor = descriptor
        self._owner = owner_process
        self._handlers: Dict[str, Callable[..., Any]] = {}
        # Bound transaction-counter handles, cached per registry identity
        # (same discipline as Logcat and ActivityManager).
        self._bound_registry = None
        self._transaction_handles: Dict[str, object] = {}

    def _count_transaction(self, outcome: str) -> None:
        t = self._owner.runtime.telemetry
        if t.enabled:
            metrics = t.metrics
            if metrics is not self._bound_registry:
                self._transaction_handles = {}
                self._bound_registry = metrics
            handle = self._transaction_handles.get(outcome)
            if handle is None:
                handle = _TRANSACTIONS_SITE.bind(metrics, (self.descriptor, outcome))
                self._transaction_handles[outcome] = handle
            handle.pending += 1

    @property
    def owner(self) -> ProcessRecord:
        return self._owner

    def is_binder_alive(self) -> bool:
        return self._owner.alive

    def register(self, code: str, handler: Callable[..., Any]) -> None:
        """Register a transaction handler (server side)."""
        self._handlers[code] = handler

    def transact(self, code: str, *args: Any, **kwargs: Any) -> Any:
        """Perform a transaction; raises on dead owner or unknown code."""
        profiler = self._owner.runtime.telemetry.profiler
        if profiler.enabled:
            profiler.enter("binder")
            try:
                return self._transact(code, *args, **kwargs)
            finally:
                profiler.exit()
        return self._transact(code, *args, **kwargs)

    def _transact(self, code: str, *args: Any, **kwargs: Any) -> Any:
        plane = self._owner.runtime.faults
        if plane.armed:
            # A due transport fault fails the transaction before it reaches
            # the remote -- DeadObjectException / TransactionTooLargeException
            # exactly as the kernel driver would surface them.
            try:
                plane.on_transact(self._owner.clock, self.descriptor)
            except Throwable:
                self._count_transaction("transport_fault")
                raise
        if not self._owner.alive:
            self._count_transaction("dead_object")
            raise DeadObjectException(
                f"Transaction failed on {self.descriptor}: process {self._owner.name} is dead"
            )
        handler = self._handlers.get(code)
        if handler is None:
            self._count_transaction("unknown_code")
            raise IllegalArgumentException(
                f"Unknown transaction code {code!r} on {self.descriptor}"
            )
        self._count_transaction("ok")
        return handler(*args, **kwargs)

    def link_to_death(self, recipient: Callable[[ProcessRecord], None]) -> None:
        self._owner.link_to_death(recipient)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self.is_binder_alive() else "dead"
        return f"<IBinder {self.descriptor} ({state})>"


class ServiceRegistry:
    """``ServiceManager`` analogue: name → binder."""

    def __init__(self) -> None:
        self._services: Dict[str, IBinder] = {}

    def add_service(self, name: str, binder: IBinder) -> None:
        self._services[name] = binder

    def get_service(self, name: str) -> Optional[IBinder]:
        binder = self._services.get(name)
        if binder is None:
            return None
        return binder

    def check_service(self, name: str) -> Optional[IBinder]:
        binder = self._services.get(name)
        if binder is None or not binder.is_binder_alive():
            return None
        return binder

    def remove_service(self, name: str) -> None:
        self._services.pop(name, None)

    def names(self) -> tuple:
        return tuple(sorted(self._services))
