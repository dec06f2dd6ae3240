"""Simulated time for the whole device.

The paper's experiment is paced in real time -- 100 ms between successive
intents and an extra 250 ms every 100 intents, with 5 s ANR timeouts for
broadcast-style work and watchdog windows for the system server.  Replaying
1.5M injections at that pace would take ~2 days of wall clock, so the
simulator runs on a virtual monotonic clock: sleeping advances the clock
instantly, while every relative relationship (pacing vs. ANR timeout vs.
aging decay window) is preserved.

The clock also provides a tiny deadline scheduler used by the ANR watchdog
and the system server's health checks, and a :class:`FleetScheduler` that
interleaves many independent device pairs -- each on its own clock -- inside
a single worker process by always stepping the pair with the earliest next
virtual deadline.
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
from typing import Any, Callable, Dict, Generator, List, Optional

# Compacting a tiny queue costs more bookkeeping than it saves; below this
# size cancelled entries are simply left for advance_to/drain to skip.
_COMPACT_MIN_QUEUE = 8


@dataclasses.dataclass(order=True)
class _ScheduledCall:
    deadline_ms: float
    seq: int
    #: ``None`` once cancelled: a cancelled call never runs, and a callback
    #: that holds its own handle (a self-re-arming timer) would otherwise
    #: keep itself alive through the call.
    callback: Optional[Callable[[], None]] = dataclasses.field(compare=False)
    cancelled: bool = dataclasses.field(default=False, compare=False)


class Clock:
    """A virtual monotonic millisecond clock with deadline callbacks."""

    def __init__(self, start_ms: float = 0.0) -> None:
        self._now_ms = float(start_ms)
        self._queue: List[_ScheduledCall] = []
        self._seq = itertools.count()
        self._cancelled_count = 0

    # -- time ------------------------------------------------------------------
    def now_ms(self) -> float:
        """Current virtual time in milliseconds since boot."""
        return self._now_ms

    def uptime_millis(self) -> int:
        """Android's ``SystemClock.uptimeMillis()`` analogue."""
        return int(self._now_ms)

    def sleep(self, duration_ms: float) -> None:
        """Advance time by *duration_ms*, firing any due callbacks in order."""
        if duration_ms < 0:
            raise ValueError(f"cannot sleep a negative duration: {duration_ms}")
        self.advance_to(self._now_ms + duration_ms)

    def advance_to(self, deadline_ms: float) -> None:
        """Advance time to *deadline_ms* (no-op if already past)."""
        if deadline_ms < self._now_ms:
            return
        while self._queue and self._queue[0].deadline_ms <= deadline_ms:
            call = heapq.heappop(self._queue)
            if call.cancelled:
                self._cancelled_count -= 1
                continue
            # Jump to the callback's own deadline before running it so the
            # callback observes a consistent "now".  Callbacks scheduled
            # re-entrantly from inside a callback -- even at exactly this
            # deadline -- land behind it in the heap (same deadline, higher
            # seq) and fire in scheduling order on the next loop iteration.
            self._now_ms = max(self._now_ms, call.deadline_ms)
            call.callback()
        self._now_ms = max(self._now_ms, deadline_ms)

    # -- scheduling --------------------------------------------------------------
    def call_at(self, deadline_ms: float, callback: Callable[[], None]) -> "ScheduledHandle":
        """Run *callback* when time reaches *deadline_ms*."""
        call = _ScheduledCall(deadline_ms=deadline_ms, seq=next(self._seq), callback=callback)
        heapq.heappush(self._queue, call)
        return ScheduledHandle(call, self)

    def call_after(self, delay_ms: float, callback: Callable[[], None]) -> "ScheduledHandle":
        """Run *callback* after *delay_ms* of virtual time."""
        if delay_ms < 0:
            raise ValueError(f"negative delay: {delay_ms}")
        return self.call_at(self._now_ms + delay_ms, callback)

    def pending_count(self) -> int:
        return len(self._queue) - self._cancelled_count

    def cancelled_count(self) -> int:
        """Cancelled-but-not-yet-reaped entries still occupying the heap."""
        return self._cancelled_count

    def _cancel(self, call: _ScheduledCall) -> None:
        if call.cancelled:
            return
        call.cancelled = True
        call.callback = None
        self._cancelled_count += 1
        # Long fleet runs arm and cancel watchdog timers constantly; once
        # dead entries dominate the heap, rebuild it so memory stays bounded
        # by the number of *live* timers.
        if (
            len(self._queue) >= _COMPACT_MIN_QUEUE
            and self._cancelled_count * 2 > len(self._queue)
        ):
            self._compact()

    def _compact(self) -> None:
        self._queue = [entry for entry in self._queue if not entry.cancelled]
        heapq.heapify(self._queue)
        self._cancelled_count = 0

    def cancel_all(self) -> None:
        """Cancel every pending callback, running none and moving no time."""
        for call in self._queue:
            call.cancelled = True
            call.callback = None
        self._queue = []
        self._cancelled_count = 0

    def drain(self, horizon_ms: Optional[float] = None) -> None:
        """Run all pending callbacks up to *horizon_ms* (default: all)."""
        while self._queue:
            head = self._queue[0]
            if head.cancelled:
                heapq.heappop(self._queue)
                self._cancelled_count -= 1
                continue
            if horizon_ms is not None and head.deadline_ms > horizon_ms:
                break
            self.advance_to(head.deadline_ms)


class ScheduledHandle:
    """Cancellation handle returned by :meth:`Clock.call_at`."""

    def __init__(self, call: _ScheduledCall, clock: Optional[Clock] = None) -> None:
        self._call = call
        self._clock = clock

    def cancel(self) -> None:
        if self._clock is not None:
            self._clock._cancel(self._call)
        else:
            self._call.cancelled = True
            self._call.callback = None

    @property
    def cancelled(self) -> bool:
        return self._call.cancelled

    @property
    def deadline_ms(self) -> float:
        return self._call.deadline_ms


# A pair task is a generator that yields absolute virtual deadlines on its
# own clock ("wake me when my clock reaches t") and returns its result via
# StopIteration.value.
PairTask = Generator[float, None, Any]


@dataclasses.dataclass(order=True)
class _FleetEntry:
    deadline_ms: float
    seq: int
    key: str = dataclasses.field(compare=False)
    clock: Clock = dataclasses.field(compare=False)
    task: PairTask = dataclasses.field(compare=False)


class FleetScheduler:
    """Cooperative earliest-deadline interleaving of independent pair tasks.

    Each task owns a private :class:`Clock` (one simulated watch+phone pair)
    and yields the absolute virtual deadline it wants to sleep until.  The
    scheduler always resumes the task whose next deadline is earliest across
    the fleet -- ties broken by admission order -- after advancing that
    task's own clock to the deadline.  Because tasks share no simulated
    state, the interleaving cannot change any per-pair outcome; it only
    decides which pair's fixed timeline is replayed next, which is what lets
    one worker process multiplex a whole lane of pairs.
    """

    def __init__(self) -> None:
        self._ready: List[_FleetEntry] = []
        self._seq = itertools.count()
        self._results: Dict[str, Any] = {}
        self.active = 0
        self.peak_active = 0
        self.steps = 0

    def add(self, key: str, clock: Clock, task: PairTask) -> None:
        """Admit *task* (keyed for result lookup) running on *clock*."""
        if key in self._results:
            raise ValueError(f"duplicate fleet task key: {key}")
        self._results[key] = None
        self.active += 1
        self.peak_active = max(self.peak_active, self.active)
        self._step(_FleetEntry(clock.now_ms(), next(self._seq), key, clock, task), first=True)

    def _step(self, entry: _FleetEntry, first: bool = False) -> None:
        try:
            if first:
                deadline = next(entry.task)
            else:
                deadline = entry.task.send(None)
        except StopIteration as stop:
            self._results[entry.key] = stop.value
            self.active -= 1
            return
        if deadline < entry.clock.now_ms():
            raise ValueError(
                f"fleet task {entry.key!r} yielded a deadline in its past: "
                f"{deadline} < {entry.clock.now_ms()}"
            )
        heapq.heappush(
            self._ready,
            _FleetEntry(deadline, entry.seq, entry.key, entry.clock, entry.task),
        )

    def run(self) -> Dict[str, Any]:
        """Drive all admitted tasks to completion; return results by key."""
        while self._ready:
            entry = heapq.heappop(self._ready)
            entry.clock.advance_to(entry.deadline_ms)
            self.steps += 1
            self._step(entry)
        return dict(self._results)

    def run_some(self, max_steps: int) -> bool:
        """Run up to *max_steps* resumptions; return True while work remains.

        Lane runners use this to interleave heartbeat/kill-switch checks
        with scheduling without giving up the earliest-deadline order.
        """
        for _ in range(max_steps):
            if not self._ready:
                return False
            entry = heapq.heappop(self._ready)
            entry.clock.advance_to(entry.deadline_ms)
            self.steps += 1
            self._step(entry)
        return bool(self._ready)

    def results(self) -> Dict[str, Any]:
        return dict(self._results)
