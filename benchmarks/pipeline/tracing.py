"""Outside-in layer tracing: wrap the program's public calls, account self time.

The traced repetition patches each layer's public functions and methods
(the :data:`TARGETS` table) with timing wrappers for the duration of one
run, then restores every original.  Nothing inside ``src/`` changes.

Accounting is a stack of child-time accumulators.  A wrapped call pushes
one, runs, pops it, and charges ``elapsed - children`` to its own slot as
self time and ``elapsed`` to its parent's accumulator.  The bottom of the
stack belongs to the traced root region, so its self time -- the work no
wrapped call covers -- is the ``unattributed`` layer, and the layer self
times plus ``unattributed`` add up to the traced wall by construction.

Calls made once per intent (generation, dispatch, log writes) are only
aggregated into their slot.  Coarse calls (shard, segment fold, pair
setup) and the benchmark's own study regions also record a span: name,
start, end, parent span, attributes, and the per-layer deltas accrued
inside it.  Spans stay in memory and are written as JSONL at exit.

Only the thread that installed the wrappers is traced; a call from any
other thread (the service daemon's lease heartbeat) passes straight
through.  A target that cannot be resolved -- a later change renamed or
removed it -- is listed in :attr:`Tracer.absent` instead of failing.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import json
import sys
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

#: Target kinds.  ``call``: time each call.  ``resume``: the function
#: returns a generator; time each resumption (``next``/``send``) and count
#: the items it yields.  ``items``: count the items of a returned generator
#: without timing them.  ``tally``: count calls without timing them.
CALL, RESUME, ITEMS, TALLY = "call", "resume", "items", "tally"

#: Layers in pipeline order; each reports ``<layer>.self_s``.
LAYERS = (
    "setup",
    "generate",
    "dispatch",
    "logcat",
    "parse",
    "fold",
    "fuzz",
    "farm",
    "fleet",
    "journal",
    "service",
    "report",
)


@dataclasses.dataclass(frozen=True)
class Target:
    """One wrapped program callable and where its numbers go."""

    layer: str
    path: str                                   # "module:Qual.name"
    kind: str = CALL
    self_metric: Optional[str] = None           # sub-metric for its self time
    count_metric: Optional[str] = None          # metric for its count
    #: ``count(args, result)`` per call (default: 1 per call or per item).
    count: Optional[Callable[[tuple, Any], int]] = None
    #: ``before(args)`` is subtracted from ``count(args, result)``.
    before: Optional[Callable[[tuple], int]] = None
    span: Optional[str] = None                  # span name; None = aggregate only
    attrs: Optional[Callable[[tuple], Dict[str, Any]]] = None


def _length(args, result) -> int:
    return len(result)


def _steps(args, result=None) -> int:
    return args[0].steps


def _segment(args) -> Dict[str, Any]:
    return {"package": args[2], "campaign": args[3]}


TARGETS = (
    Target("setup", "repro.apps.catalog:build_wear_corpus"),
    Target("setup", "repro.wear.device:WearDevice.__init__", self_metric="setup.device_self_s"),
    Target("setup", "repro.wear.device:PhoneDevice.__init__", self_metric="setup.device_self_s"),
    Target(
        "setup",
        "repro.wear.device:pair",
        count_metric="setup.pairs",
        span="pair",
        attrs=lambda args: {"watch": args[1].name},
    ),
    Target("setup", "repro.apps.catalog:Corpus.install", self_metric="setup.install_self_s"),
    Target("setup", "repro.qgj.master:deploy"),
    Target("generate", "repro.qgj.campaigns:generate", kind=RESUME, count_metric="generate.yielded"),
    Target("generate", "repro.qgj.campaigns:generate_campaign_a", kind=ITEMS, count_metric="generate.built"),
    Target("generate", "repro.qgj.campaigns:generate_campaign_b", kind=ITEMS, count_metric="generate.built"),
    Target("generate", "repro.qgj.campaigns:generate_campaign_c", kind=ITEMS, count_metric="generate.built"),
    Target("generate", "repro.qgj.campaigns:generate_campaign_d", kind=ITEMS, count_metric="generate.built"),
    Target("generate", "repro.qgj.campaigns:random_ascii", kind=TALLY, count_metric="generate.random_ascii_calls"),
    Target("generate", "repro.qgj.campaigns:FuzzIntent.build", self_metric="generate.build_self_s"),
    Target("dispatch", "repro.android.activity_manager:ActivityManager.start_activity", count_metric="dispatch.calls"),
    Target(
        "dispatch",
        "repro.android.activity_manager:ActivityManager.start_service_with_result",
        count_metric="dispatch.calls",
    ),
    Target("logcat", "repro.android.log:Logcat.write", self_metric="logcat.write_self_s", count_metric="logcat.records"),
    Target(
        "logcat",
        "repro.android.adb:Adb.logcat",
        self_metric="logcat.dump_self_s",
        count_metric="logcat.dump_bytes",
        count=_length,
    ),
    Target("logcat", "repro.android.adb:Adb.logcat_clear"),
    Target(
        "parse",
        "repro.analysis.logparse:parse_events",
        self_metric="parse.events_self_s",
        count_metric="parse.events",
        count=_length,
    ),
    Target("parse", "repro.analysis.logparse:attach_handled_frames", self_metric="parse.attach_self_s"),
    Target(
        "fold",
        "repro.analysis.manifest:StudyCollector.fold",
        count_metric="fold.segments",
        span="segment",
        attrs=_segment,
    ),
    Target("fuzz", "repro.qgj.fuzzer:FuzzerLibrary.fuzz_app"),
    Target("fuzz", "repro.qgj.fuzzer:FuzzerLibrary.fuzz_app_coop", kind=RESUME),
    Target("farm", "repro.farm.supervisor:supervise_shards"),
    Target(
        "farm",
        "repro.farm.shard:run_shard",
        count_metric="farm.shards",
        span="shard",
        attrs=lambda args: {"shard": args[0].key, "study": args[0].study},
    ),
    Target("farm", "repro.farm.merge:merge_collectors", self_metric="farm.merge_self_s"),
    Target("farm", "repro.farm.merge:merge_summaries", self_metric="farm.merge_self_s"),
    Target("farm", "repro.farm.merge:merge_fleet", self_metric="farm.merge_self_s"),
    Target("fleet", "repro.android.clock:FleetScheduler.run", count_metric="fleet.steps", count=_steps, before=_steps),
    Target(
        "fleet",
        "repro.android.clock:FleetScheduler.run_some",
        count_metric="fleet.steps",
        count=_steps,
        before=_steps,
    ),
    Target("journal", "repro.faults.journal:CheckpointJournal.append", self_metric="journal.append_self_s"),
    Target(
        "journal",
        "repro.faults.journal:CheckpointJournal.save_state",
        self_metric="journal.snapshot_self_s",
        count_metric="journal.snapshots",
    ),
    Target("service", "repro.service.daemon:ServiceDaemon.__init__", self_metric="service.start_self_s"),
    Target("service", "repro.service.daemon:ServiceDaemon.start", self_metric="service.start_self_s"),
    Target("service", "repro.service.daemon:ServiceDaemon.submit"),
    Target("service", "repro.service.daemon:ServiceDaemon.serve_forever"),
    Target("service", "repro.service.wal:ServiceWAL._append", self_metric="service.wal_self_s"),
    Target("service", "repro.service.store:ResultStore.put_study", self_metric="service.store_self_s"),
)

#: Every per-layer metric a traced run reports, in report order.
LAYER_METRICS = (
    "setup.self_s",
    "setup.device_self_s",
    "setup.install_self_s",
    "setup.pairs",
    "generate.self_s",
    "generate.build_self_s",
    "generate.yielded",
    "generate.built",
    "generate.yield_ratio",
    "generate.random_ascii_calls",
    "dispatch.self_s",
    "dispatch.calls",
    "logcat.self_s",
    "logcat.write_self_s",
    "logcat.records",
    "logcat.dump_self_s",
    "logcat.dump_bytes",
    "parse.self_s",
    "parse.events_self_s",
    "parse.attach_self_s",
    "parse.events",
    "fold.self_s",
    "fold.segments",
    "fuzz.self_s",
    "farm.self_s",
    "farm.merge_self_s",
    "farm.shards",
    "fleet.self_s",
    "fleet.steps",
    "journal.self_s",
    "journal.append_self_s",
    "journal.snapshot_self_s",
    "journal.snapshots",
    "service.self_s",
    "service.start_self_s",
    "service.wal_self_s",
    "service.store_self_s",
    "report.self_s",
    "unattributed.self_s",
    "trace.wall_s",
)


class _Slot:
    """Running totals of one target (or one benchmark-timed region)."""

    __slots__ = ("target", "self_s", "count")

    def __init__(self, target: Target) -> None:
        self.target = target
        self.self_s = 0.0
        self.count = 0


def _resolve(path: str):
    """``(owner, attribute name, current value)`` for a target path."""
    module_name, _, qualname = path.partition(":")
    owner: Any = importlib.import_module(module_name)
    *outer, name = qualname.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, name, getattr(owner, name)


class Stopwatch:
    """The untraced stand-in for :class:`Tracer`: times the root region only."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.wall_s = 0.0

    @contextlib.contextmanager
    def root(self) -> Iterator[None]:
        start = self.clock()
        try:
            yield
        finally:
            self.wall_s = self.clock() - start

    def span(self, name: str, **attrs: Any):
        return contextlib.nullcontext()

    def region(self, layer: str):
        return contextlib.nullcontext()


class Tracer(Stopwatch):
    """Layer self-time accounting over wrapped program calls."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        super().__init__(clock)
        self._children: List[float] = [0.0]
        self._open_spans: List[Optional[int]] = [None]
        self.spans: List[Dict[str, Any]] = []
        self.slots: List[_Slot] = []
        self.absent: List[str] = []
        self.root_self_s = 0.0
        self._patches: List[tuple] = []
        self._thread = threading.get_ident()

    # -- installing and removing wrappers -----------------------------------------
    @contextlib.contextmanager
    def installed(self, targets: Sequence[Target] = TARGETS) -> Iterator["Tracer"]:
        """Wrap every resolvable target; restore every original on exit."""
        try:
            for target in targets:
                self._install(target)
            yield self
        finally:
            self.uninstall()

    def _install(self, target: Target) -> None:
        try:
            owner, name, original = _resolve(target.path)
        except (ImportError, AttributeError):
            self.absent.append(target.path)
            return
        slot = _Slot(target)
        self.slots.append(slot)
        wrapper = self._wrap(original, slot)
        if isinstance(owner, type):
            self._patch(owner, name, original, wrapper)
            return
        # A module-level function is also bound under its own name in every
        # module that imported it: patch each alias, or calls through it
        # would bypass the wrapper.
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if namespace is not None and namespace.get(name) is original:
                self._patch(module, name, original, wrapper)

    def _patch(self, owner, name: str, original, wrapper) -> None:
        had_own = name in vars(owner)
        setattr(owner, name, wrapper)
        self._patches.append((owner, name, original, had_own))

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original, had_own = self._patches.pop()
            if had_own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)

    # -- wrappers -----------------------------------------------------------------
    def _wrap(self, fn, slot: _Slot):
        kind = slot.target.kind
        if kind == TALLY:
            return self._tally(fn, slot)
        if kind == ITEMS:
            return self._items(fn, slot)
        if kind == RESUME:
            return self._resumed(fn, slot)
        if slot.target.span is not None:
            return self._spanned(fn, slot)
        return self._timed(fn, slot)

    @staticmethod
    def _tally(fn, slot: _Slot):
        def wrapper(*args, **kwargs):
            slot.count += 1
            return fn(*args, **kwargs)

        return wrapper

    @staticmethod
    def _items(fn, slot: _Slot):
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                slot.count += 1
                yield item

        return wrapper

    def _timed(self, fn, slot: _Slot):
        children = self._children
        clock = self.clock
        main = self._thread
        ident = threading.get_ident
        count = slot.target.count
        before = slot.target.before

        def wrapper(*args, **kwargs):
            if ident() != main:
                return fn(*args, **kwargs)
            base = before(args) if before is not None else 0
            children.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = children.pop()
                children[-1] += elapsed
                slot.self_s += elapsed - inner
            slot.count += 1 if count is None else count(args, result) - base
            return result

        return wrapper

    def _spanned(self, fn, slot: _Slot):
        timed = self._timed(fn, slot)
        target = slot.target

        def wrapper(*args, **kwargs):
            if threading.get_ident() != self._thread:
                return fn(*args, **kwargs)
            attrs = target.attrs(args) if target.attrs is not None else {}
            with self._span(target.span, target.layer, attrs):
                return timed(*args, **kwargs)

        return wrapper

    def _resumed(self, fn, slot: _Slot):
        def wrapper(*args, **kwargs):
            return self._resume_timed(fn(*args, **kwargs), slot)

        return wrapper

    def _resume_timed(self, gen, slot: _Slot):
        """Delegate to *gen*, timing each resumption as one call of *slot*.

        Values sent in, exceptions thrown in, closing, and the generator's
        return value all pass through, so ``yield from`` callers (the fleet
        kernel's pair tasks) see the generator unchanged.
        """
        children = self._children
        clock = self.clock
        value: Any = None
        thrown: Optional[BaseException] = None
        while True:
            children.append(0.0)
            start = clock()
            done = False
            try:
                if thrown is None:
                    item = gen.send(value)
                else:
                    item = gen.throw(thrown)
            except StopIteration as stop:
                done, returned = True, stop.value
            finally:
                elapsed = clock() - start
                inner = children.pop()
                children[-1] += elapsed
                slot.self_s += elapsed - inner
            if done:
                return returned
            slot.count += 1
            try:
                value, thrown = (yield item), None
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # forwarded into gen, which decides
                value, thrown = None, exc

    # -- benchmark-side regions ---------------------------------------------------
    @contextlib.contextmanager
    def root(self) -> Iterator[None]:
        """The traced wall: everything the rep times, wrapped or not."""
        self._children[:] = [0.0]
        with self._span("rep", None, {}):
            start = self.clock()
            try:
                yield
            finally:
                self.wall_s = self.clock() - start
        self.root_self_s = self.wall_s - self._children[0]

    def span(self, name: str, **attrs: Any):
        """A benchmark-side span (study); its own time stays unattributed."""
        return self._span(name, None, attrs)

    @contextlib.contextmanager
    def region(self, layer: str) -> Iterator[None]:
        """Charge a block of benchmark code that calls *layer* to that layer."""
        slot = _Slot(Target(layer, f"<benchmark>:{layer}"))
        self.slots.append(slot)
        children = self._children
        children.append(0.0)
        start = self.clock()
        try:
            yield
        finally:
            elapsed = self.clock() - start
            inner = children.pop()
            children[-1] += elapsed
            slot.self_s += elapsed - inner
            slot.count += 1

    @contextlib.contextmanager
    def _span(self, name: str, layer: Optional[str], attrs: Dict[str, Any]) -> Iterator[None]:
        span_id = len(self.spans)
        record = {
            "id": span_id,
            "parent": self._open_spans[-1],
            "name": name,
            "layer": layer,
            "attrs": attrs,
        }
        self.spans.append(record)
        self._open_spans.append(span_id)
        before = self.totals()
        record["start"] = self.clock()
        try:
            yield
        finally:
            record["end"] = self.clock()
            self._open_spans.pop()
            after = self.totals()
            record["deltas"] = {
                key: after[key] - before.get(key, 0) for key in after if after[key] != before.get(key, 0)
            }

    # -- results ------------------------------------------------------------------
    def totals(self) -> Dict[str, float]:
        """Layer self times and sub-metric totals accrued so far."""
        totals: Dict[str, float] = {}
        for slot in self.slots:
            target = slot.target
            key = f"{target.layer}.self_s"
            totals[key] = totals.get(key, 0.0) + slot.self_s
            if target.self_metric is not None:
                totals[target.self_metric] = totals.get(target.self_metric, 0.0) + slot.self_s
            if target.count_metric is not None:
                totals[target.count_metric] = totals.get(target.count_metric, 0) + slot.count
        return totals

    def metrics(self) -> Dict[str, float]:
        """Every :data:`LAYER_METRICS` entry for the finished root region."""
        totals = self.totals()
        values = {name: totals.get(name, 0.0 if name.endswith("_s") else 0) for name in LAYER_METRICS}
        built = values["generate.built"]
        values["generate.yield_ratio"] = values["generate.yielded"] / built if built else 0.0
        values["unattributed.self_s"] = self.root_self_s
        values["trace.wall_s"] = self.wall_s
        return values

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(record, sort_keys=True, default=str) + "\n")
