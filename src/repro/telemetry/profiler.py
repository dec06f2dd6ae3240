"""Self-profiling: wall self-time attribution across campaign phases.

The telemetry plane watches the campaign; this watches the telemetry
plane's host -- where one wall-clock second of simulation actually goes
across the ``intent-generation → AM dispatch → logcat → fold → UI``
loop.  It is the built-in replacement for "attach cProfile and rerun":
cheap enough to leave on for a measurement run (one ``perf_counter`` and a
dict upsert per phase switch, nothing per sample inside a phase), and off
by default (the :class:`NoopProfiler` twin costs one attribute check).

The model is a flamegraph's: instrumented regions push a *phase* onto a
stack, and elapsed wall time is charged to whichever stack path is on top
when the clock ticks past -- so a path's bucket holds its **self** time,
exclusive of the phases nested inside it.  Accumulated paths export two
ways:

* a ``SELF-PROFILE`` section in ``dumpsys telemetry`` / ``summary.txt``;
* ``profile.collapsed`` -- Brendan Gregg's collapsed-stack format
  (``phase;subphase <microseconds>`` per line), ready for
  ``flamegraph.pl`` or speedscope.

Farm merge: a worker shard ships :meth:`PhaseProfiler.snapshot` home on
its ``ShardResult`` and the study-wide profiler :meth:`merge`\\ s it in --
self-times sum, like every other wall-clock account in the farm.
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

#: A path is the tuple of open phase names, outermost first.
Path = Tuple[str, ...]


class PhaseProfiler:
    """Accumulates wall self-time per phase-stack path."""

    enabled = True

    __slots__ = ("_stack", "_acc", "_last")

    def __init__(self) -> None:
        #: Open phase paths, innermost last.
        self._stack: List[Path] = []
        #: path -> [self_seconds, entries]
        self._acc: Dict[Path, List[float]] = {}
        self._last = 0.0

    def enter(self, phase: str) -> None:
        """Open *phase*: charge the elapsed slice to the enclosing path."""
        now = time.perf_counter()
        stack = self._stack
        acc = self._acc
        if stack:
            acc[stack[-1]][0] += now - self._last
            path = stack[-1] + (phase,)
        else:
            path = (phase,)
        cell = acc.get(path)
        if cell is None:
            acc[path] = cell = [0.0, 0]
        cell[1] += 1
        stack.append(path)
        self._last = now

    def exit(self) -> None:
        """Close the innermost phase, charging it its final slice."""
        now = time.perf_counter()
        stack = self._stack
        if not stack:
            return
        self._acc[stack.pop()][0] += now - self._last
        self._last = now

    # -- reads / export --------------------------------------------------------
    @property
    def open_depth(self) -> int:
        return len(self._stack)

    def paths(self) -> List[Tuple[Path, float, int]]:
        """``(path, self_seconds, entries)`` rows, sorted by path."""
        return [
            (path, cell[0], cell[1]) for path, cell in sorted(self._acc.items())
        ]

    def total_seconds(self) -> float:
        return sum(cell[0] for cell in self._acc.values())

    def snapshot(self) -> Dict[str, Tuple[float, int]]:
        """A picklable account: ``{";".join(path): (self_s, entries)}``."""
        return {";".join(path): (cell[0], cell[1]) for path, cell in self._acc.items()}

    def merge(self, snapshot: Dict[str, Tuple[float, int]]) -> None:
        """Fold another profiler's :meth:`snapshot` into this one."""
        for key, (seconds, entries) in snapshot.items():
            path = tuple(key.split(";"))
            cell = self._acc.get(path)
            if cell is None:
                self._acc[path] = cell = [0.0, 0]
            cell[0] += seconds
            cell[1] += entries


class NoopProfiler:
    """Disabled twin of :class:`PhaseProfiler`: every call is inert."""

    enabled = False
    open_depth = 0

    def enter(self, phase: str) -> None:
        pass

    def exit(self) -> None:
        pass

    def paths(self) -> List[Tuple[Path, float, int]]:
        return []

    def total_seconds(self) -> float:
        return 0.0

    def snapshot(self) -> Dict[str, Tuple[float, int]]:
        return {}

    def merge(self, snapshot: Dict[str, Tuple[float, int]]) -> None:
        pass


NOOP_PROFILER = NoopProfiler()
