"""Nested span tracing for injection campaigns.

A campaign run is a tree of work: ``study → campaign → package →
component``.  Each :class:`Span` is stamped with **both** clocks the
simulator lives on -- the device's virtual millisecond clock (what the
experiment "experienced") and wall-clock ``time.perf_counter`` (what the
host actually spent) -- so a trace answers both "where did the virtual
hours go" and "where does the simulation burn host CPU".

The component is the finest unit traced: its span carries how many intents
it sent, and per-outcome counts live in ``intents_injected_total``.  That
keeps a whole quick or paper run to a few thousand spans.  Finished spans
land in a bounded ring buffer all the same -- keeping the newest window
plus a dropped count, the discipline the logcat ring buffer applies to
records -- so a caller that opens spans without bound stays bounded.
"""

from __future__ import annotations

import contextlib
import itertools
import time
from collections import deque
from typing import Deque, Dict, Iterator, List, Optional

#: Default finished-span ring capacity.
DEFAULT_SPAN_CAPACITY = 8192


class Span:
    """One timed unit of campaign work."""

    __slots__ = (
        "span_id",
        "parent_id",
        "name",
        "attributes",
        "start_wall_s",
        "end_wall_s",
        "start_virtual_ms",
        "end_virtual_ms",
    )

    def __init__(
        self,
        span_id: int,
        parent_id: Optional[int],
        name: str,
        attributes: Dict[str, object],
        start_wall_s: float,
        start_virtual_ms: Optional[float],
    ) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.attributes = attributes
        self.start_wall_s = start_wall_s
        self.end_wall_s: Optional[float] = None
        self.start_virtual_ms = start_virtual_ms
        self.end_virtual_ms: Optional[float] = None

    def set_attribute(self, key: str, value: object) -> None:
        self.attributes[key] = value

    @property
    def wall_duration_s(self) -> Optional[float]:
        if self.end_wall_s is None:
            return None
        return self.end_wall_s - self.start_wall_s

    @property
    def virtual_duration_ms(self) -> Optional[float]:
        if self.end_virtual_ms is None or self.start_virtual_ms is None:
            return None
        return self.end_virtual_ms - self.start_virtual_ms

    def to_dict(self) -> Dict[str, object]:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "attributes": dict(self.attributes),
            "start_wall_s": self.start_wall_s,
            "end_wall_s": self.end_wall_s,
            "start_virtual_ms": self.start_virtual_ms,
            "end_virtual_ms": self.end_virtual_ms,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Span {self.name} id={self.span_id} parent={self.parent_id}>"


class Tracer:
    """Produces nested spans and retains the newest *capacity* of them."""

    def __init__(self, capacity: int = DEFAULT_SPAN_CAPACITY, clock=None) -> None:
        if capacity < 1:
            raise ValueError(f"span capacity must be >= 1, got {capacity}")
        #: Finished spans, oldest first.
        self._finished: Deque[Span] = deque(maxlen=capacity)
        #: Every span ever appended to the ring (absorbed shards' own drops
        #: included); ``dropped`` is this minus what the ring retains.
        self._appended = 0
        self._stack: List[Span] = []
        self._ids = itertools.count(1)
        self._clock = clock

    enabled = True

    def set_clock(self, clock) -> None:
        """Attach the device clock used to stamp virtual time."""
        self._clock = clock

    def _virtual_now(self, clock) -> Optional[float]:
        active = clock if clock is not None else self._clock
        return active.now_ms() if active is not None else None

    @contextlib.contextmanager
    def span(self, name: str, clock=None, **attributes: object) -> Iterator[Span]:
        """Open a span; nests under the innermost open span on this tracer.

        *clock* overrides the tracer's default clock for virtual-time
        stamping (the fuzzer passes the device clock of the device it is
        injecting into).
        """
        parent_id = self._stack[-1].span_id if self._stack else None
        span = Span(
            span_id=next(self._ids),
            parent_id=parent_id,
            name=name,
            attributes=dict(attributes),
            start_wall_s=time.perf_counter(),
            start_virtual_ms=self._virtual_now(clock),
        )
        self._stack.append(span)
        try:
            yield span
        finally:
            self._stack.pop()
            span.end_wall_s = time.perf_counter()
            span.end_virtual_ms = self._virtual_now(clock)
            self._appended += 1
            self._finished.append(span)

    def absorb(self, spans: List[Span], dropped: int = 0) -> None:
        """Append finished spans from another tracer (a farm shard's).

        Span ids are re-issued from this tracer's sequence so merged traces
        stay unique; parent links are remapped within the absorbed batch and
        severed (→ root) when the parent fell outside it -- the same thing
        the ring buffer does to a span whose parent was evicted.  A parent
        finishes after its children, so the whole batch's ids are mapped
        before any link is.  *dropped* carries the source tracer's own
        eviction count forward.
        """
        id_map = {span.span_id: next(self._ids) for span in spans}
        for span in spans:
            span.span_id = id_map[span.span_id]
            if span.parent_id is not None:
                span.parent_id = id_map.get(span.parent_id)
            self._finished.append(span)
        self._appended += len(spans) + dropped

    # -- reads -----------------------------------------------------------------
    def spans(self) -> List[Span]:
        """Finished spans, oldest first (within the retained window)."""
        return list(self._finished)

    @property
    def dropped(self) -> int:
        """Finished spans evicted by the ring buffer."""
        return self._appended - len(self._finished)

    @property
    def open_depth(self) -> int:
        return len(self._stack)

    def __len__(self) -> int:
        return len(self._finished)


class _NoopSpan:
    """Shared inert span handed out by the disabled tracer."""

    __slots__ = ()

    def set_attribute(self, key: str, value: object) -> None:
        pass


_NOOP_SPAN = _NoopSpan()


class NoopTracer:
    """Disabled twin of :class:`Tracer`."""

    enabled = False
    dropped = 0
    open_depth = 0

    def set_clock(self, clock) -> None:
        pass

    @contextlib.contextmanager
    def span(self, name: str, clock=None, **attributes: object):
        yield _NOOP_SPAN

    def spans(self) -> List[Span]:
        return []

    def __len__(self) -> int:
        return 0


NOOP_TRACER = NoopTracer()
