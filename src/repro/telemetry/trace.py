"""Nested span tracing for injection campaigns.

A campaign run is a tree of work: ``study → campaign → package → component
→ injection``.  Each :class:`Span` is stamped with **both** clocks the
simulator lives on -- the device's virtual millisecond clock (what the
experiment "experienced") and wall-clock ``time.perf_counter`` (what the
host actually spent) -- so a trace answers both "where did the virtual
hours go" and "where does the simulation burn host CPU".

Finished spans land in a bounded ring buffer: a paper-scale run makes
millions of injection spans, and keeping the newest window (plus a dropped
count) is the same discipline the logcat ring buffer applies to records.

Two mechanisms keep the tracer off the hot path's back:

* **Deterministic 1-in-N sampling.**  With ``sample_every=N > 1`` the
  tracer retains every Nth occurrence of each span *name*, with the phase
  offset derived from ``(sample_seed, name)`` -- so a fixed seed reproduces
  the exact same sampled trace, and ``sampled_out`` accounts for every span
  that was opened but not retained (``retained + dropped + sampled_out`` is
  the total).  Sampling counters reset at farm-shard boundaries
  (:meth:`Tracer.begin_shard`), which is what keeps the merged trace
  byte-identical at any worker count.  ``sample_every=1`` (the default)
  skips the accounting entirely and retains everything.
* **Leaf-span fast path.**  :meth:`Tracer.record_leaf` records a
  high-frequency childless span (the fuzzer's per-injection span) in a
  single call, without the context-manager machinery or the open-span
  stack.  Leaf records live in the ring as compact flat tuples and are
  inflated into :class:`Span` objects only when the ring is read: a full
  ring of tuples is a fraction of the cache footprint of a full ring of
  span+dict objects, and the eviction path is the deque's own ``maxlen``
  drop -- no per-record object churn at all.
"""

from __future__ import annotations

import contextlib
import itertools
import time
import zlib
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


#: Compact leaf-ring entry layout (see :meth:`Tracer.record_leaf`):
#: ``(span_id, parent_id, name, attributes_or_keys, start_wall_s,
#: end_wall_s, start_virtual_ms, end_virtual_ms, *values)``.  Slot 3 is
#: either the attribute dict itself or a shared tuple of attribute keys
#: whose values trail the fixed fields -- the latter is what the fuzzer's
#: inline client writes, so one flat tuple is the whole record.
def _materialize(entry: tuple) -> Span:
    """Inflate a compact leaf-ring entry into a full :class:`Span`."""
    attrs = entry[3]
    if type(attrs) is not dict:
        attrs = dict(zip(attrs, entry[8:]))
    span = Span(entry[0], entry[1], entry[2], attrs, entry[4], entry[6])
    span.end_wall_s = entry[5]
    span.end_virtual_ms = entry[7]
    return span


class Tracer:
    """Produces nested spans and retains the newest *capacity* of them."""

    def __init__(
        self,
        capacity: int = DEFAULT_SPAN_CAPACITY,
        clock=None,
        sample_every: int = 1,
        sample_seed: int = 0,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"span capacity must be >= 1, got {capacity}")
        if sample_every < 1:
            raise ValueError(f"sample_every must be >= 1, got {sample_every}")
        #: Finished spans, oldest first.  Nested spans (the context-manager
        #: path) land as :class:`Span` objects; leaf records land as compact
        #: flat tuples (see :func:`_materialize`) and are only inflated on
        #: read -- the ring's cache footprint, not just its allocation rate,
        #: is what the hot path pays for.
        self._finished: Deque[object] = deque(maxlen=capacity)
        #: Every record ever appended to the ring (absorbed shards' own
        #: drops included); an inline leaf client adds its appends itself.
        #: ``dropped`` is this minus what the ring retains.
        self._appended = 0
        self._stack: List[Span] = []
        self._ids = itertools.count(1)
        self._clock = clock
        self.sample_every = int(sample_every)
        self.sample_seed = int(sample_seed)
        self._sampled_out = 0
        #: Per-name occurrence counters since the last shard boundary.
        self._sample_counts: Dict[str, int] = {}
        #: Per-name phase offsets, derived from ``(sample_seed, name)``.
        self._sample_offsets: Dict[str, int] = {}

    enabled = True

    def set_clock(self, clock) -> None:
        """Attach the device clock used to stamp virtual time."""
        self._clock = clock

    def _virtual_now(self, clock) -> Optional[float]:
        active = clock if clock is not None else self._clock
        return active.now_ms() if active is not None else None

    # -- sampling --------------------------------------------------------------
    def _sample(self, name: str) -> bool:
        """Account one span open; True when this occurrence is retained."""
        every = self.sample_every
        if every == 1:
            return True
        n = self._sample_counts.get(name, 0)
        self._sample_counts[name] = n + 1
        offset = self._sample_offsets.get(name)
        if offset is None:
            offset = zlib.crc32(f"{self.sample_seed}:{name}".encode("utf-8")) % every
            self._sample_offsets[name] = offset
        if n % every == offset:
            return True
        self._sampled_out += 1
        return False

    def begin_shard(self) -> None:
        """Reset the sampling phase at a farm-shard boundary.

        Every shard samples from a fresh count, whether it runs in-process
        against the live tracer or on a worker-local one -- the invariant
        that makes sampled traces merge identically at any worker count.
        """
        self._sample_counts.clear()

    @contextlib.contextmanager
    def span(self, name: str, clock=None, **attributes: object) -> Iterator[Span]:
        """Open a span; nests under the innermost open span on this tracer.

        *clock* overrides the tracer's default clock for virtual-time
        stamping (the fuzzer passes the device clock of the device it is
        injecting into).  A sampled-out span yields an inert stand-in and
        is transparent to nesting: its children link to the nearest
        retained ancestor, and it consumes no span id.
        """
        if not self._sample(name):
            yield _NOOP_SPAN
            return
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

    # -- leaf fast path --------------------------------------------------------
    def record_leaf(
        self,
        name: str,
        attributes: Dict[str, object],
        start_wall_s: float,
        end_wall_s: float,
        start_virtual_ms: Optional[float],
        end_virtual_ms: Optional[float],
    ) -> None:
        """Record one finished high-frequency *childless* span.

        The caller reads both clocks itself (hoisting the bound methods out
        of its loop) and hands the four stamps over, so the whole record is
        one call.  Sampling is decided here: a sampled-out occurrence is
        accounted in :attr:`sampled_out` and consumes no span id.  The span
        is never pushed on the open-span stack -- nothing may nest under it.

        The record is stored as one flat tuple (the tracer owns
        *attributes* from this point on) and inflated into a :class:`Span`
        only when :meth:`spans` is read -- a full ring of tuples is several
        times smaller than a full ring of span+dict objects, which keeps
        the hot path's cache working set down.
        """
        if self.sample_every != 1 and not self._sample(name):
            return
        stack = self._stack
        self._appended += 1
        self._finished.append(
            (
                next(self._ids),
                stack[-1].span_id if stack else None,
                name,
                attributes,
                start_wall_s,
                end_wall_s,
                start_virtual_ms,
                end_virtual_ms,
            )
        )

    def absorb(self, spans: List[Span], dropped: int = 0, sampled_out: int = 0) -> None:
        """Append finished spans from another tracer (a farm shard's).

        Span ids are re-issued from this tracer's sequence so merged traces
        stay unique; parent links are remapped within the absorbed batch and
        severed (→ root) when the parent fell outside it -- the same thing
        the ring buffer does to a span whose parent was evicted.  A parent
        finishes after its children, so the whole batch's ids are mapped
        before any link is.  *dropped* and *sampled_out* carry the source
        tracer's own accounting forward.
        """
        id_map = {span.span_id: next(self._ids) for span in spans}
        for span in spans:
            span.span_id = id_map[span.span_id]
            if span.parent_id is not None:
                span.parent_id = id_map.get(span.parent_id)
            self._finished.append(span)
        self._appended += len(spans) + dropped
        self._sampled_out += sampled_out

    # -- reads -----------------------------------------------------------------
    def spans(self) -> List[Span]:
        """Finished spans, oldest first (within the retained window).

        Compact leaf-ring entries are inflated here, so every element is a
        real :class:`Span` regardless of which path recorded it.
        """
        return [
            s if type(s) is not tuple else _materialize(s) for s in self._finished
        ]

    @property
    def dropped(self) -> int:
        """Finished spans evicted by the ring buffer."""
        return self._appended - len(self._finished)

    @property
    def sampled_out(self) -> int:
        """Spans opened but not retained by 1-in-N sampling."""
        return self._sampled_out

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
    sampled_out = 0
    sample_every = 1
    sample_seed = 0

    def set_clock(self, clock) -> None:
        pass

    def begin_shard(self) -> None:
        pass

    @contextlib.contextmanager
    def span(self, name: str, clock=None, **attributes: object):
        yield _NOOP_SPAN

    def record_leaf(
        self,
        name: str,
        attributes: Dict[str, object],
        start_wall_s: float,
        end_wall_s: float,
        start_virtual_ms: Optional[float],
        end_virtual_ms: Optional[float],
    ) -> None:
        pass

    def spans(self) -> List[Span]:
        return []

    def __len__(self) -> int:
        return 0


NOOP_TRACER = NoopTracer()
