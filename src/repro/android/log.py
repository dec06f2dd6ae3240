"""The device log (``logcat``).

Everything the DSN'18 study measures is measured *through logs*: the authors
ran fuzz campaigns, pulled >2 GB of ``logcat`` output over ``adb``, and then
classified component behaviour by grepping for ``FATAL EXCEPTION: main``,
ANR entries, ``SecurityException`` permission denials, and reboot markers.

To keep this reproduction honest, the analysis reads only what logcat holds
-- the records ``adb`` pulls, or text decoded back to records by a codec a
property test pins -- never simulator state.  The text grammar
(:meth:`LogRecord.render`) is the Android ``threadtime`` format::

    06-20 10:01:22.345  1234  1234 E AndroidRuntime: FATAL EXCEPTION: main
    06-20 10:01:22.345  1234  1234 E AndroidRuntime: Process: com.example.fit, PID: 1234
    06-20 10:01:22.346  1234  1234 E AndroidRuntime: java.lang.NullPointerException: ...
    06-20 10:01:22.346  1234  1234 E AndroidRuntime: \tat com.example.fit.MainActivity.onCreate(MainActivity.java:42)
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Deque, Iterable, Iterator, List, NamedTuple, Optional

from repro.android.clock import Clock
from repro.android.jtypes import NativeSignal, Throwable
from repro.android.runtime import RuntimeContext
from repro.telemetry.metrics import LOGCAT_BUFFERED, LOGCAT_DROPPED, LOGCAT_WRITTEN
from repro.telemetry.record import CounterSite, GaugeSite

#: Logcat is written on every dispatch, denial, and crash block -- the
#: second-hottest instrumented path after injection counting.  Sites keep
#: each write to a few batched handle operations.
_WRITTEN_SITE = CounterSite(LOGCAT_WRITTEN, "Log records appended to logcat.")
_DROPPED_SITE = CounterSite(
    LOGCAT_DROPPED, "Log records evicted by the logcat ring buffer."
)
_BUFFERED_SITE = GaugeSite(
    LOGCAT_BUFFERED, "Log records currently held in the logcat ring buffer."
)


class Level(enum.Enum):
    """Logcat priority levels."""

    VERBOSE = "V"
    DEBUG = "D"
    INFO = "I"
    WARN = "W"
    ERROR = "E"
    FATAL = "F"

    def __str__(self) -> str:
        return self.value


class LogRecord(NamedTuple):
    """One logcat line (pre-rendered message, single line).

    A tuple with named fields: one allocation per log line, built and
    compared like any tuple, and read-only (assigning a field raises
    ``AttributeError``).
    """

    time_ms: float
    pid: int
    tid: int
    level: Level
    tag: str
    message: str

    def render(self) -> str:
        return (
            f"{_format_time(self.time_ms)} {self.pid:5d} {self.tid:5d} "
            f"{self.level} {self.tag}: {self.message}"
        )


def _format_time(time_ms: float) -> str:
    """Render virtual milliseconds-since-boot as a logcat timestamp.

    The virtual epoch is pinned to ``06-20 10:00:00.000`` (an arbitrary but
    fixed date) so output is deterministic.
    """
    total_ms = int(time_ms)
    ms = total_ms % 1000
    total_s = total_ms // 1000
    sec = total_s % 60
    total_m = total_s // 60
    minute = total_m % 60
    total_h = total_m // 60
    hour = (10 + total_h) % 24
    day = 20 + ((10 + total_h) // 24)
    return f"06-{day:02d} {hour:02d}:{minute:02d}:{sec:02d}.{ms:03d}"


# Tags the simulator uses for framework events; the parser keys on these.
TAG_RUNTIME = "AndroidRuntime"
TAG_ACTIVITY_MANAGER = "ActivityManager"
TAG_SYSTEM = "SystemServer"
TAG_LIBC = "libc"
TAG_DEBUGGERD = "DEBUG"
TAG_WATCHDOG = "Watchdog"
TAG_BOOT = "boot"
TAG_SENSOR = "SensorService"


class Logcat:
    """A device-wide ring buffer of :class:`LogRecord`.

    Parameters
    ----------
    clock:
        The device clock; records are stamped with its virtual time.
    capacity:
        Maximum records retained (oldest dropped first), like the kernel log
        ring buffer.  ``None`` keeps everything -- fine at quick scale, and
        experiments set an explicit cap for paper-scale runs.
    """

    def __init__(
        self,
        clock: Clock,
        capacity: Optional[int] = None,
        runtime: Optional[RuntimeContext] = None,
    ) -> None:
        self._clock = clock
        self.runtime = runtime if runtime is not None else RuntimeContext()
        self._records: Deque[LogRecord] = deque(maxlen=capacity)
        self._dropped = 0
        self._appended = 0
        # Bound telemetry handles, re-resolved when the registry changes
        # identity (a new session or a shard-local handle); write() is on
        # the path of every simulated log line, so the steady-state cost
        # must stay at one pointer comparison.
        self._bound_registry = None
        self._written_handle = None
        self._buffered_handle = None

    # -- raw writes ---------------------------------------------------------------
    def write(self, level: Level, tag: str, message: str, pid: int = 0, tid: Optional[int] = None) -> None:
        """Append one record per line of *message*, all stamped with the
        same clock reading."""
        if tid is None:
            tid = pid
        t = self.runtime.telemetry
        profiler = t.profiler
        prof_on = profiler.enabled
        if prof_on:
            profiler.enter("logcat")
        records = self._records
        before = len(records)
        now = self._clock.now_ms()
        if "\n" in message:
            lines = message.split("\n")
            for line in lines:
                records.append(LogRecord(now, pid, tid, level, tag, line))
            written = len(lines)
        else:
            records.append(LogRecord(now, pid, tid, level, tag, message))
            written = 1
        # Every append to a full ring evicts its oldest record, so a
        # multi-line message can cross the capacity boundary mid-call.
        maxlen = records.maxlen
        dropped_now = 0
        if maxlen is not None and before + written > maxlen:
            dropped_now = before + written - maxlen
            self._dropped += dropped_now
        self._appended += written
        if t.enabled:
            metrics = t.metrics
            if metrics is not self._bound_registry:
                self._written_handle = _WRITTEN_SITE.bind(metrics)
                self._buffered_handle = _BUFFERED_SITE.bind(metrics)
                self._bound_registry = metrics
            # Direct slot stores -- BoundCounter.inc / BoundGauge.set with
            # the call overhead shaved off the per-log-line path.
            self._written_handle.pending += written
            if dropped_now:
                _DROPPED_SITE.bind(metrics).inc(dropped_now)
            buffered = self._buffered_handle
            buffered.value = len(records)
            buffered.dirty = True
        if prof_on:
            profiler.exit()

    def v(self, tag: str, message: str, pid: int = 0) -> None:
        self.write(Level.VERBOSE, tag, message, pid)

    def d(self, tag: str, message: str, pid: int = 0) -> None:
        self.write(Level.DEBUG, tag, message, pid)

    def i(self, tag: str, message: str, pid: int = 0) -> None:
        self.write(Level.INFO, tag, message, pid)

    def w(self, tag: str, message: str, pid: int = 0) -> None:
        self.write(Level.WARN, tag, message, pid)

    def e(self, tag: str, message: str, pid: int = 0) -> None:
        self.write(Level.ERROR, tag, message, pid)

    # -- framework-shaped events -----------------------------------------------
    def fatal_exception(self, process_name: str, pid: int, throwable: Throwable) -> None:
        """The ``AndroidRuntime`` block printed when a main thread dies."""
        lines = ["FATAL EXCEPTION: main", f"Process: {process_name}, PID: {pid}"]
        lines.extend(throwable.stack_trace_lines())
        self.write(Level.ERROR, TAG_RUNTIME, "\n".join(lines), pid=pid)

    def handled_exception(self, tag: str, pid: int, throwable: Throwable, context: str = "") -> None:
        """An exception that an app caught and logged (``Log.w`` style)."""
        prefix = f"{context}: " if context else ""
        lines = [prefix + throwable.java_str()]
        lines.extend(str(f) for f in throwable.frames[:4])
        self.write(Level.WARN, tag, "\n".join(lines), pid=pid)

    def security_denial(self, pid: int, detail: str) -> None:
        """System-side ``SecurityException`` (permission denial) entry."""
        self.write(
            Level.WARN,
            TAG_ACTIVITY_MANAGER,
            f"java.lang.SecurityException: Permission Denial: {detail}",
            pid=pid,
        )

    def anr(self, process_name: str, pid: int, component: str, reason: str) -> None:
        """``ActivityManager`` ANR block."""
        lines = [
            f"ANR in {process_name} ({component})",
            f"PID: {pid}",
            f"Reason: {reason}",
        ]
        self.write(Level.ERROR, TAG_ACTIVITY_MANAGER, "\n".join(lines), pid=pid)

    def native_crash(self, signal: NativeSignal, pid: int) -> None:
        """``libc``/debuggerd lines for a fatal native signal."""
        self.write(Level.FATAL, TAG_LIBC, signal.logcat_line(), pid=pid)
        self.write(
            Level.FATAL,
            TAG_DEBUGGERD,
            f"*** *** signal {signal.number} ({signal.signal}), process: {signal.process} *** ***",
            pid=pid,
        )

    def reboot_marker(self, reason: str) -> None:
        """Markers bracketing a device reboot."""
        self.write(Level.ERROR, TAG_SYSTEM, f"!!! SYSTEM REBOOT: {reason} !!!")
        self.write(Level.INFO, TAG_BOOT, "Starting Android runtime")
        self.write(Level.INFO, TAG_BOOT, "Boot completed")

    # -- reads -----------------------------------------------------------------
    def records(self) -> Iterator[LogRecord]:
        return iter(self._records)

    def records_since(self, mark: int) -> List[LogRecord]:
        """The retained records appended after *mark*, an :attr:`appended`
        value read earlier; eviction and truncation only take older ones."""
        count = min(self._appended - mark, len(self._records))
        return list(self._records)[len(self._records) - count:]

    def dump(self) -> str:
        """Full text, the output of ``adb logcat -d``."""
        return "\n".join(record.render() for record in self._records)

    def dump_lines(self) -> List[str]:
        return [record.render() for record in self._records]

    def tail(self, count: int) -> List[str]:
        return [record.render() for record in list(self._records)[-count:]]

    def grep(self, needle: str) -> List[LogRecord]:
        return [r for r in self._records if needle in r.message or needle in r.tag]

    def truncate_oldest(self, count: int) -> None:
        """Discard the *count* oldest records (chaos-plane buffer loss).

        Unlike ring eviction this is silent data loss injected by the fault
        plane, but it is accounted identically: the records count as
        dropped, and the telemetry gauge tracks the shrunken buffer.
        """
        count = min(count, len(self._records))
        for _ in range(count):
            self._records.popleft()
        self._dropped += count
        t = self.runtime.telemetry
        if t.enabled and count:
            _DROPPED_SITE.bind(t.metrics).inc(count)
            _BUFFERED_SITE.bind(t.metrics).set(len(self._records))

    def clear(self) -> None:
        self._records.clear()
        self._dropped = 0

    def __len__(self) -> int:
        return len(self._records)

    @property
    def dropped(self) -> int:
        """Records evicted by the ring buffer (0 when capacity is None)."""
        return self._dropped

    @property
    def appended(self) -> int:
        """Records ever appended; unlike :func:`len`, never lowered by
        eviction, truncation or :meth:`clear`."""
        return self._appended
