"""Process and main-thread model.

Each installed app runs (when started) in a *process* with a single main
thread driven by a looper -- Android's execution model.  The pieces of that
model the fuzz study depends on are:

* component callbacks run on the main thread, one at a time, in order;
* an uncaught throwable on the main thread kills the whole process
  (``FATAL EXCEPTION: main``) -- that is the study's *Crash* manifestation;
* a callback that blocks past the ANR timeout triggers an
  Application-Not-Responding report -- the *Hang* manifestation;
* when a process dies, its death recipients are notified, and a client
  that held a binder to it surfaces ``DeadObjectException`` -- one of the
  error-propagation channels behind the observed reboots.

Time is virtual (:mod:`repro.android.clock`): a callback declares how long it
*would* have run, and the looper advances the clock by that much.
"""

from __future__ import annotations

import dataclasses
import enum
import itertools
from collections import deque
from typing import Callable, Deque, List, Optional

from repro.android.clock import Clock
from repro.android.jtypes import Throwable
from repro.android.runtime import RuntimeContext

#: Android's foreground-dispatch ANR window.
DEFAULT_ANR_TIMEOUT_MS = 5000.0

#: First pid handed out by a fresh device (Android's app-pid floor, roughly).
FIRST_APP_PID = 1000

#: Fallback allocator for records constructed without a table (tests build
#: bare ``ProcessRecord`` objects); never used by device-managed processes.
_DETACHED_PIDS = itertools.count(900_000)


class ProcessState(enum.Enum):
    NOT_RUNNING = "not_running"
    RUNNING = "running"
    CRASHED = "crashed"
    KILLED = "killed"


@dataclasses.dataclass
class MainThreadTask:
    """One unit of main-thread work (a lifecycle callback, usually)."""

    description: str
    run: Callable[[], None]
    #: Virtual execution cost.  Behaviour models use large values to model a
    #: handler that blocks (leading to ANR).
    duration_ms: float = 1.0


@dataclasses.dataclass
class CrashInfo:
    """Post-mortem record of a process crash."""

    time_ms: float
    throwable: Throwable
    task_description: str


@dataclasses.dataclass
class AnrInfo:
    """Post-mortem record of an ANR."""

    time_ms: float
    task_description: str
    blocked_for_ms: float


class ProcessRecord:
    """A running (or formerly running) app or system process."""

    def __init__(
        self,
        name: str,
        package: str,
        clock: Clock,
        is_system: bool = False,
        is_native: bool = False,
        anr_timeout_ms: float = DEFAULT_ANR_TIMEOUT_MS,
        pid: Optional[int] = None,
        runtime: Optional[RuntimeContext] = None,
    ) -> None:
        self.name = name
        self.package = package
        self.pid = pid if pid is not None else next(_DETACHED_PIDS)
        self.runtime = runtime if runtime is not None else RuntimeContext()
        self.clock = clock
        self.is_system = is_system
        self.is_native = is_native
        self.anr_timeout_ms = anr_timeout_ms
        self.state = ProcessState.RUNNING
        self.start_time_ms = clock.now_ms()
        self.crashes: List[CrashInfo] = []
        self.anrs: List[AnrInfo] = []
        self._queue: Deque[MainThreadTask] = deque()
        #: Observers notified when this process dies (binder death links).
        self._death_recipients: List[Callable[["ProcessRecord"], None]] = []

    # -- liveness ---------------------------------------------------------------
    @property
    def alive(self) -> bool:
        return self.state == ProcessState.RUNNING

    def link_to_death(self, recipient: Callable[["ProcessRecord"], None]) -> None:
        """Register a binder death recipient."""
        self._death_recipients.append(recipient)

    def _notify_death(self) -> None:
        recipients, self._death_recipients = self._death_recipients, []
        for recipient in recipients:
            recipient(self)

    def discard(self) -> None:
        """Let go of queued tasks and death recipients without running any."""
        self._queue.clear()
        self._death_recipients.clear()

    def kill(self, reason: str = "killed") -> None:
        """Forcibly terminate (``am force-stop`` / lmkd / crash cleanup)."""
        if not self.alive:
            return
        self.state = ProcessState.KILLED
        self._queue.clear()
        self._notify_death()

    # -- main-thread execution ------------------------------------------------------
    def post(self, task: MainThreadTask) -> None:
        """Enqueue *task* on the main thread."""
        if not self.alive:
            raise RuntimeError(f"posting to dead process {self.name}")
        self._queue.append(task)

    def run_main_task(self, task: MainThreadTask) -> Optional[Throwable]:
        """Execute one task synchronously on the (virtual) main thread.

        Returns the uncaught :class:`Throwable` if the task threw, after
        recording the crash and killing the process; returns ``None`` on
        success.  ANR accounting is done by the caller (the activity
        manager), which knows the dispatch type and its timeout.
        """
        if not self.alive:
            raise RuntimeError(f"running task on dead process {self.name}")
        self.clock.sleep(task.duration_ms)
        try:
            task.run()
        except Throwable as thrown:
            # The simulated Java stack is ``thrown.frames``.  Python's
            # traceback holds this frame (this record, the task) and would
            # close a loop through ``self.crashes``.
            thrown.__traceback__ = None
            self.state = ProcessState.CRASHED
            self.crashes.append(
                CrashInfo(
                    time_ms=self.clock.now_ms(),
                    throwable=thrown,
                    task_description=task.description,
                )
            )
            self._queue.clear()
            self._notify_death()
            return thrown
        return None

    def drain_queue(self) -> Optional[Throwable]:
        """Run queued tasks until empty or the process dies."""
        while self.alive and self._queue:
            task = self._queue.popleft()
            thrown = self.run_main_task(task)
            if thrown is not None:
                return thrown
        return None

    def record_anr(self, task_description: str, blocked_for_ms: float) -> AnrInfo:
        info = AnrInfo(
            time_ms=self.clock.now_ms(),
            task_description=task_description,
            blocked_for_ms=blocked_for_ms,
        )
        self.anrs.append(info)
        return info

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ProcessRecord {self.name} pid={self.pid} {self.state.value}>"


class ProcessTable:
    """The device's table of live processes, keyed by process name.

    *logcat*, when provided, receives the ``lowmemorykiller`` lines emitted
    for chaos-plane lmkd kills (the analysis parser ignores the tag, so the
    study's classification never keys on them).
    """

    def __init__(self, clock: Clock, logcat=None, runtime: Optional[RuntimeContext] = None) -> None:
        self._clock = clock
        self._logcat = logcat
        self.runtime = runtime if runtime is not None else RuntimeContext()
        self._processes: dict[str, ProcessRecord] = {}
        self.total_started = 0
        self.lmkd_kills = 0
        #: Per-device pid watermark: each device hands out its own pid space,
        #: so pids are deterministic per run and never leak across devices
        #: (or across tests) the way the old class-level counter did.
        self._next_pid = FIRST_APP_PID

    @property
    def clock(self) -> Clock:
        return self._clock

    def allocate_pid(self) -> int:
        pid = self._next_pid
        self._next_pid += 1
        return pid

    def get(self, name: str) -> Optional[ProcessRecord]:
        proc = self._processes.get(name)
        if proc is not None and not proc.alive:
            return None
        return proc

    def get_or_start(
        self,
        name: str,
        package: str,
        is_system: bool = False,
        is_native: bool = False,
    ) -> ProcessRecord:
        plane = self.runtime.faults
        if plane.armed:
            # lmkd runs before the lookup: a due low-memory kill may reap
            # the very process being asked for, which then restarts cold --
            # exactly Android's behaviour under memory pressure.
            plane.on_process_table(self)
        proc = self.get(name)
        if proc is None:
            proc = ProcessRecord(
                name=name,
                package=package,
                clock=self._clock,
                is_system=is_system,
                is_native=is_native,
                pid=self.allocate_pid(),
                runtime=self.runtime,
            )
            self._processes[name] = proc
            self.total_started += 1
        return proc

    def lmkd_kill(self, victim: ProcessRecord) -> None:
        """Reap *victim* the way the low-memory killer daemon would."""
        if not victim.alive:
            return
        self.lmkd_kills += 1
        if self._logcat is not None:
            self._logcat.i(
                "lowmemorykiller",
                f"Killing '{victim.name}' ({victim.pid}), adj 900, to free memory",
            )
        victim.kill("lmkd")

    def kill_package(self, package: str, reason: str = "force-stop") -> int:
        """Kill every process belonging to *package*; returns count killed."""
        killed = 0
        for proc in list(self._processes.values()):
            if proc.package == package and proc.alive:
                proc.kill(reason)
                killed += 1
        return killed

    def live_processes(self) -> List[ProcessRecord]:
        return [p for p in self._processes.values() if p.alive]

    def all_processes(self) -> List[ProcessRecord]:
        return list(self._processes.values())

    def clear(self) -> None:
        """Drop every process record (used across a simulated reboot)."""
        for proc in self._processes.values():
            if proc.alive:
                proc.kill("reboot")
        self._processes.clear()

    def discard(self) -> None:
        """Drop every process record silently (device shutdown).

        Unlike :meth:`clear` nothing is killed, so no death recipient runs:
        each record only lets go of its recipients and its queue.
        """
        for proc in self._processes.values():
            proc.discard()
        self._processes.clear()
