"""Seeded environment-fault plans and their per-device execution state.

A :class:`FaultPlan` is a *description*: which fault kinds fire, how often
(mean interval in virtual milliseconds, exponentially distributed), and any
explicitly pinned one-shot events.  It is frozen, hashable, and carries a
``fingerprint()`` so a checkpoint journal can refuse to resume a run under a
different plan.

Execution state lives in :class:`PlanExecution`, one per device clock: the
per-kind RNG streams and "next fire time" cursors.  Everything is scheduled
on the *virtual* clock, so a faulty run is exactly replayable -- same seed,
same clock trajectory, same faults -- and execution state is plain picklable
data.  An execution builds streams only for the kinds its plan arms and
keeps the earliest pending event over them, so until a fault falls due a
hook's query costs one comparison.

The fault taxonomy follows Cotroneo et al.'s OS/IPC fault dimensions mapped
onto this simulator:

* ``ADB_DROP`` -- the adb session to the device is lost; the next adb
  command raises :class:`~repro.faults.errors.AdbSessionDropped`;
* ``BINDER`` -- a binder transaction fails in transport with
  ``DeadObjectException`` or ``TransactionTooLargeException``;
* ``LMKD_KILL`` -- the low-memory killer reaps an app process;
* ``LOGCAT_TRUNCATE`` -- the log ring loses its oldest half before the
  operator pulls it.

The OS-service family extends the taxonomy into ``system_server`` itself:

* ``SERVICE_OUTAGE`` -- one system service (activity / package / sensor)
  is unavailable for :data:`SERVICE_OUTAGE_WINDOW_MS`; calls raise
  ``DeadObjectException``-style errors until the window closes;
* ``SERVICE_CORRUPT`` -- a service returns a corrupted reply: the package
  manager ships a stale/mangled ``ComponentInfo`` parcel, the sensor
  service drops or duplicates a listener registration;
* ``SYSTEM_RESTART`` -- system_server dies and restarts in place; every
  service bounces and registered binders/listeners must re-attach (no
  reboot: ``boot_count`` is untouched);
* ``COMPAT_MISMATCH`` -- with a :class:`CompatMatrix` pinned on the plan,
  version-gated calls fail with ``NoSuchMethodError``-style throwables or
  companion/node messaging degrades.  Without a skewed matrix the stream
  is inert, so the kind stays wired (and covered by the interval property
  test) while a matched pair never sees it.
"""

from __future__ import annotations

import dataclasses
import enum
import math
import random
from typing import Dict, List, Optional, Tuple


class FaultKind(enum.Enum):
    """The environment-fault taxonomy."""

    ADB_DROP = "adb_drop"
    BINDER = "binder"
    LMKD_KILL = "lmkd_kill"
    LOGCAT_TRUNCATE = "logcat_truncate"
    SERVICE_OUTAGE = "service_outage"
    SERVICE_CORRUPT = "service_corrupt"
    SYSTEM_RESTART = "system_restart"
    COMPAT_MISMATCH = "compat_mismatch"


@dataclasses.dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault occurrence."""

    at_ms: float
    kind: FaultKind
    #: Kind-specific detail (binder: the exception class to raise).
    param: str = ""


#: Binder faults alternate between the two transport exception classes.
BINDER_DEAD_OBJECT = "DeadObjectException"
BINDER_TOO_LARGE = "TransactionTooLargeException"

#: System services the outage stream can take down (event ``param``).  The
#: android-layer hook sites name themselves with the same plain strings.
OUTAGE_SERVICES = ("activity", "package", "sensor")

#: How long one SERVICE_OUTAGE keeps its service down (virtual ms).  The
#: default retry schedule (4 attempts, 50ms base, x2 backoff) sleeps ~350ms
#: cumulative, so retries usually -- but not always -- outlast a window:
#: most outages are absorbed as retries, a few surface as quarantine
#: pressure, exactly the transient-fault texture the study wants.
SERVICE_OUTAGE_WINDOW_MS = 400.0

#: Corrupted-reply manifestations (``SERVICE_CORRUPT`` event ``param``).
CORRUPT_STALE_COMPONENT = "stale_component"
CORRUPT_DROP_LISTENER = "drop_listener"
CORRUPT_DUP_LISTENER = "dup_listener"
CORRUPTIONS = (CORRUPT_STALE_COMPONENT, CORRUPT_DROP_LISTENER, CORRUPT_DUP_LISTENER)

#: Compat-mismatch manifestations (``COMPAT_MISMATCH`` event ``param``):
#: a version-gated framework call failing at the injection boundary, or a
#: serialization delta degrading companion/node messaging.
COMPAT_MISSING_METHOD = "missing_method"
COMPAT_SYNC_DELTA = "sync_delta"

#: Default chaos profile intervals (virtual ms).  An 18-virtual-hour quick
#: study sees on the order of 100 binder faults, 36 adb drops, 54 lmkd
#: kills, and 18 log truncations -- dense enough to exercise every path,
#: sparse enough that retry absorbs almost all of them.  The OS-service
#: family is sparser still (~27 outages, ~21 corrupted replies, ~6
#: system_server restarts); compat mismatches only manifest when a skewed
#: :class:`CompatMatrix` is pinned on the plan.
CHAOS_INTERVALS_MS: Dict[FaultKind, float] = {
    FaultKind.ADB_DROP: 1_800_000.0,
    FaultKind.BINDER: 600_000.0,
    FaultKind.LMKD_KILL: 1_200_000.0,
    FaultKind.LOGCAT_TRUNCATE: 3_600_000.0,
    FaultKind.SERVICE_OUTAGE: 2_400_000.0,
    FaultKind.SERVICE_CORRUPT: 3_000_000.0,
    FaultKind.SYSTEM_RESTART: 10_800_000.0,
    FaultKind.COMPAT_MISMATCH: 1_800_000.0,
}

#: The API level both halves of a healthy pair run (Wear 2.0 / API 25,
#: the paper's test bed).  ``CompatMatrix.from_skew`` pins the phone below
#: it.
BASE_WEAR_API = 25


@dataclasses.dataclass(frozen=True)
class CompatMatrix:
    """Pinned phone/wear API levels for one device pair.

    Part of the :class:`FaultPlan` (and therefore of its fingerprint, the
    checkpoint-journal identity, and shard re-seeding via
    ``dataclasses.replace``).  A matrix with zero skew is inert: gates
    pass, deltas never manifest, and a run under it is byte-identical to a
    run with no matrix at all.
    """

    phone_api: int = BASE_WEAR_API
    wear_api: int = BASE_WEAR_API

    def __post_init__(self) -> None:
        for name in ("phone_api", "wear_api"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")

    @property
    def skew(self) -> int:
        return abs(self.phone_api - self.wear_api)

    @property
    def effective_api(self) -> int:
        """The API surface the *pair* can rely on (the older side's)."""
        return min(self.phone_api, self.wear_api)

    def fingerprint_token(self) -> str:
        return f"compat={self.phone_api}/{self.wear_api}"

    @staticmethod
    def from_skew(skew: int) -> "CompatMatrix":
        """A pair whose phone runs *skew* API levels behind the wearable."""
        if skew < 0:
            raise ValueError(f"skew must be >= 0, got {skew}")
        return CompatMatrix(phone_api=BASE_WEAR_API - skew, wear_api=BASE_WEAR_API)


#: The :class:`FaultPlan` field holding each kind's mean interval.
INTERVAL_FIELDS: Dict[FaultKind, str] = {
    FaultKind.ADB_DROP: "adb_drop_every_ms",
    FaultKind.BINDER: "binder_every_ms",
    FaultKind.LMKD_KILL: "lmkd_every_ms",
    FaultKind.LOGCAT_TRUNCATE: "logcat_truncate_every_ms",
    FaultKind.SERVICE_OUTAGE: "service_outage_every_ms",
    FaultKind.SERVICE_CORRUPT: "service_corrupt_every_ms",
    FaultKind.SYSTEM_RESTART: "system_restart_every_ms",
    FaultKind.COMPAT_MISMATCH: "compat_mismatch_every_ms",
}


@dataclasses.dataclass(frozen=True)
class FaultPlan:
    """A deterministic, seeded schedule of environment faults.

    ``*_every_ms`` are mean intervals for the stochastic streams (``None``
    disables a stream); ``oneshots`` pins explicit events, which fire in
    addition to the streams.  An all-``None``, no-oneshot plan is *empty*:
    installing it arms the hooks but injects nothing, and a run under it is
    bit-identical to a run with no plan at all (the no-op guarantee).
    """

    seed: int = 0
    adb_drop_every_ms: Optional[float] = None
    binder_every_ms: Optional[float] = None
    lmkd_every_ms: Optional[float] = None
    logcat_truncate_every_ms: Optional[float] = None
    service_outage_every_ms: Optional[float] = None
    service_corrupt_every_ms: Optional[float] = None
    system_restart_every_ms: Optional[float] = None
    compat_mismatch_every_ms: Optional[float] = None
    #: Pinned phone/wear API levels; ``None`` (or zero skew) is a matched
    #: pair and the compat stream is inert.
    compat: Optional[CompatMatrix] = None
    oneshots: Tuple[FaultEvent, ...] = ()

    def __post_init__(self) -> None:
        for name in INTERVAL_FIELDS.values():
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")

    def interval_for(self, kind: FaultKind) -> Optional[float]:
        return getattr(self, INTERVAL_FIELDS[kind])

    def is_empty(self) -> bool:
        return not self.oneshots and all(
            self.interval_for(kind) is None for kind in FaultKind
        )

    def fingerprint(self) -> str:
        """Stable identity string, recorded in checkpoint journal headers."""
        parts = [f"seed={self.seed}"]
        for kind in FaultKind:
            interval = self.interval_for(kind)
            if interval is not None:
                parts.append(f"{kind.value}={interval:g}")
        if self.compat is not None:
            parts.append(self.compat.fingerprint_token())
        for event in self.oneshots:
            parts.append(f"@{event.at_ms:g}:{event.kind.value}:{event.param}")
        return ";".join(parts)

    @staticmethod
    def chaos(seed: int = 0) -> "FaultPlan":
        """The default chaos profile (every stream at its default rate)."""
        return FaultPlan(
            seed=seed,
            **{INTERVAL_FIELDS[kind]: ms for kind, ms in CHAOS_INTERVALS_MS.items()},
        )


class _KindStream:
    """One armed fault kind's deterministic event stream (picklable)."""

    def __init__(
        self,
        plan: FaultPlan,
        kind: FaultKind,
        interval: Optional[float],
        oneshots: List[FaultEvent],
    ) -> None:
        self.kind = kind
        self._interval = interval
        self._rng = random.Random(f"{plan.seed}:{kind.value}") if interval else None
        self._next: Optional[float] = self._draw_gap() if interval else None
        self._oneshots = oneshots
        #: When the earliest pending event falls due (``inf`` once none is).
        self.due_ms = self._earliest()

    def _draw_gap(self) -> float:
        assert self._interval is not None
        return self._rng.expovariate(1.0 / self._interval)

    def _earliest(self) -> float:
        due = math.inf if self._next is None else self._next
        if self._oneshots and self._oneshots[0].at_ms < due:
            due = self._oneshots[0].at_ms
        return due

    def _param(self) -> str:
        if self.kind is FaultKind.BINDER:
            return BINDER_DEAD_OBJECT if self._rng.random() < 0.5 else BINDER_TOO_LARGE
        if self.kind is FaultKind.SERVICE_OUTAGE:
            return self._rng.choice(OUTAGE_SERVICES)
        if self.kind is FaultKind.SERVICE_CORRUPT:
            return self._rng.choice(CORRUPTIONS)
        if self.kind is FaultKind.COMPAT_MISMATCH:
            return (
                COMPAT_MISSING_METHOD
                if self._rng.random() < 0.5
                else COMPAT_SYNC_DELTA
            )
        return ""

    def take_due(self, now_ms: float, limit: Optional[int] = None) -> List[FaultEvent]:
        """Pop every event with ``at_ms <= now_ms`` (at most *limit*)."""
        due: List[FaultEvent] = []

        def full() -> bool:
            return limit is not None and len(due) >= limit

        while self._oneshots and self._oneshots[0].at_ms <= now_ms and not full():
            due.append(self._oneshots.pop(0))
        while self._next is not None and self._next <= now_ms and not full():
            due.append(FaultEvent(at_ms=self._next, kind=self.kind, param=self._param()))
            self._next += self._draw_gap()
        self.due_ms = self._earliest()
        return due


class PlanExecution:
    """All mutable schedule state for one device clock (picklable).

    Only the kinds the plan arms (an interval or a one-shot) get a stream
    and an RNG, and ``next_due_ms`` holds the earliest pending event over
    them: while the clock is before it, :meth:`take_due` answers ``[]``
    without touching a stream.  Each stream draws from its own seeded RNG,
    so building fewer of them, or walking them less often, moves no event.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.streams: Dict[FaultKind, _KindStream] = {}
        for kind, field in INTERVAL_FIELDS.items():
            interval = getattr(plan, field)
            oneshots = sorted(
                (e for e in plan.oneshots if e.kind == kind), key=lambda e: e.at_ms
            )
            if interval is not None or oneshots:
                self.streams[kind] = _KindStream(plan, kind, interval, oneshots)
        self.next_due_ms = min(
            (stream.due_ms for stream in self.streams.values()), default=math.inf
        )
        self._victim_rng: Optional[random.Random] = None
        self.fired: int = 0
        #: Open service-unavailability windows: service name -> window-end
        #: (virtual ms).  Calls into a listed service raise until the clock
        #: passes the end.
        self.outages: Dict[str, float] = {}
        #: Drained-but-unconsumed corrupted-reply manifestations, consumed
        #: by the first matching hook site (FIFO).
        self.pending_corruptions: List[str] = []
        #: Drained-but-unconsumed compat manifestations.
        self.pending_deltas: int = 0
        self.pending_missing_method: int = 0

    @property
    def victim_rng(self) -> random.Random:
        """Deterministic victim selection for lmkd kills, seeded on first use."""
        if self._victim_rng is None:
            self._victim_rng = random.Random(f"{self.plan.seed}:lmkd-victim")
        return self._victim_rng

    def take_due(
        self, kind: FaultKind, now_ms: float, limit: Optional[int] = None
    ) -> List[FaultEvent]:
        if now_ms < self.next_due_ms:
            return []
        stream = self.streams.get(kind)
        if stream is None or now_ms < stream.due_ms:
            return []
        due = stream.take_due(now_ms, limit=limit)
        self.fired += len(due)
        self.next_due_ms = min(s.due_ms for s in self.streams.values())
        return due
