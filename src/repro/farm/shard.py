"""One shard: a fresh device pair running its slice of the study.

:func:`run_shard` is the farm's unit of work and is deliberately a pure
function of its :class:`ShardSpec`: it builds its own corpus, its own
device(s) on a virtual clock starting at zero, its own scoped fault plane
and (in worker processes) its own telemetry handle, runs the shard's
``(package, campaign)`` segments with exactly the serial harness's rhythm
-- fuzz, pull the log records, fold, clear -- and returns a picklable
:class:`ShardResult`.  Nothing it touches is process-global, which is the
whole determinism argument: a shard cannot observe which worker ran it,
what ran before it, or how many siblings it has.

The paper's harness lives here once: :func:`_build_rig` is the device
recipe (a paired Moto 360 + Nexus 4 with the corpus installed and QGJ
deployed, or a lone Nexus 6 for the phone study) and :func:`run_segment`
is one segment of the rhythm.  The wear and phone studies share one
blind-shard body around that step, the guided shard reuses the recipe, and
the ablations call the step directly.

Checkpointing is per shard: each shard keeps its own
:class:`~repro.faults.journal.CheckpointJournal` segment file and snapshot
under the study manifest, and resuming a shard restores the snapshot,
rebinds the (deliberately unpickled) :class:`RuntimeContext`, and adopts
the fault plan's execution stream -- the same capture/adopt dance the
serial harness used, now scoped to one device tree.
"""

from __future__ import annotations

import contextlib
import dataclasses
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.analysis.manifest import StudyCollector
from repro.android.runtime import RuntimeContext
from repro.apps.catalog import build_phone_corpus, build_wear_corpus
from repro.farm.health import CrashPolicy, WorkerHeartbeat, crash_for
from repro.faults.journal import CheckpointJournal, KillSwitch
from repro.faults.plan import FaultPlan
from repro.faults.plane import NOOP_PLANE, FaultPlane
from repro.faults.retry import RetryPolicy
from repro.guided.engine import BlockOutcome, GuidedTask, run_guided_blocks
from repro.qgj.campaigns import Campaign
from repro.qgj.fuzzer import QGJ_MOBILE_PACKAGE, QGJ_WEAR_PACKAGE, FuzzConfig, FuzzerLibrary
from repro.qgj.master import deploy
from repro.qgj.results import AppRunResult, FuzzSummary
from repro.telemetry import (
    DEFAULT_SPAN_CAPACITY,
    NOOP_HEARTBEAT,
    NOOP_PROFILER,
    NOOP_REGISTRY,
    NOOP_TRACER,
    Heartbeat,
    MetricsRegistry,
    PhaseProfiler,
    Span,
    Telemetry,
    Tracer,
)
from repro.telemetry.progress import DEFAULT_EVERY_INJECTIONS
from repro.wear.device import PhoneDevice, WearDevice, pair

if TYPE_CHECKING:  # pragma: no cover - avoids the experiments<->farm cycle
    from repro.apps.catalog import Corpus
    from repro.experiments.config import ExperimentConfig
    from repro.fleet.pairs import PairSpec, PairSummary

#: Backoff for the operator-side adb calls (log pull / clear between
#: segments); injection-side retries are the fuzzer's own policy.
LOG_PULL_RETRY = RetryPolicy(max_attempts=6, base_delay_ms=200.0, max_delay_ms=5_000.0)

#: Snapshot payload format version (bumped on incompatible layout changes).
#: Version 2: per-shard snapshots; the class-global pid watermark is gone
#: (pids are allocated per device) and the runtime context pickles empty.
#: Version 3: PlanExecution carries OS-service/compat state (outage windows,
#: pending corruptions and compat manifestations); older pickles lack the
#: attributes and cannot resume under the widened fault model.
#: Version 4: Logcat counts every record it ever appended (``appended``);
#: older pickles lack the counter.
SNAPSHOT_VERSION = 4


@dataclasses.dataclass(frozen=True)
class ShardSpec:
    """Everything a worker needs to run one shard, picklable by design."""

    study: str                          # "wear" | "phone" | "guided" | "fleet"
    index: int                          # position in the study's shard plan
    key: str                            # shard identity (the package name)
    packages: Tuple[str, ...]
    campaigns: Tuple[Campaign, ...]
    config: "ExperimentConfig"
    seed: int                           # derive_seed(corpus_seed, key)
    plan: Optional[FaultPlan] = None    # shard-private fault plan
    telemetry_enabled: bool = False     # worker shards build a local handle
    span_capacity: int = DEFAULT_SPAN_CAPACITY
    heartbeat_every: int = DEFAULT_EVERY_INJECTIONS
    #: Span sampling (1 = keep everything) and the seed its phase offsets
    #: derive from; copied from the live tracer so worker-local tracers
    #: sample identically to an in-process run.
    sample_every: int = 1
    sample_seed: int = 0
    #: Arm a worker-local PhaseProfiler whose snapshot ships home.
    profile: bool = False
    journal_path: Optional[str] = None  # per-shard checkpoint journal
    resume: bool = False
    #: Worker-crash injection (see :class:`repro.farm.health.CrashPolicy`);
    #: ``None`` also consults the ``REPRO_FARM_CRASH`` environment hook.
    crash: Optional[CrashPolicy] = None
    #: One package's round slice for ``study == "guided"`` (blocks, pool,
    #: known fingerprints); ``None`` for the blind studies.
    guided: Optional[GuidedTask] = None
    #: One lane's pair slice for ``study == "fleet"`` (see
    #: :mod:`repro.fleet`); ``None`` for the single-pair studies.
    fleet: Optional[Tuple["PairSpec", ...]] = None


@dataclasses.dataclass
class ShardResult:
    """What one shard ships back for merging (picklable by design)."""

    index: int
    key: str
    summary: FuzzSummary
    collector: StudyCollector
    watch: Optional[WearDevice]
    phone: Optional[PhoneDevice]
    clock_ms: float
    #: Telemetry captured by a worker-local handle; ``None``/empty when the
    #: shard ran in-process against the live handle (nothing to merge).
    metrics: Optional[MetricsRegistry] = None
    spans: List[Span] = dataclasses.field(default_factory=list)
    spans_dropped: int = 0
    spans_sampled_out: int = 0
    #: The worker-local profiler's snapshot (``None`` unless profiling).
    profile: Optional[dict] = None
    #: Block outcomes for a guided shard (``None`` for the blind studies).
    guided: Optional[List[BlockOutcome]] = None
    #: Completed pair summaries for a fleet lane shard.
    fleet: Optional[List["PairSummary"]] = None


def _fresh_handle(spec: ShardSpec) -> Telemetry:
    """A shard-local telemetry handle for worker processes.

    Never the (fork-inherited) process-wide handle: a forked worker would
    otherwise double-count everything recorded before the fork once the
    parent merges the shard registries back in.
    """
    if not spec.telemetry_enabled:
        return Telemetry(False, NOOP_REGISTRY, NOOP_TRACER, NOOP_HEARTBEAT)
    registry = MetricsRegistry()
    return Telemetry(
        True,
        registry,
        Tracer(
            capacity=spec.span_capacity,
            sample_every=spec.sample_every,
            sample_seed=spec.sample_seed,
        ),
        Heartbeat(registry, every_injections=spec.heartbeat_every),
        profiler=PhaseProfiler() if spec.profile else NOOP_PROFILER,
    )


def _adb_call(fn, clock, plane, handle, key):
    """One operator-side adb call, retried over session drops when armed."""
    if plane.armed:
        return LOG_PULL_RETRY.run(fn, clock, key=key, telemetry_handle=handle)
    return fn()


def run_segment(
    fuzzer: FuzzerLibrary,
    collector: StudyCollector,
    package: str,
    campaign: Campaign,
    fuzz: FuzzConfig,
    plane: FaultPlane = NOOP_PLANE,
    handle: Optional[Telemetry] = None,
    index: int = 0,
) -> AppRunResult:
    """One segment of the paper's harness rhythm on *fuzzer*'s device.

    Fuzz *package* with *campaign*, pull the device log over adb as
    records, fold them into *collector*, and clear the buffer.  The two adb
    calls retry over session drops only when *plane* is armed; *index* keys
    their backoff jitter so each segment's retries are distinct and
    reproducible.  Under ``--profile`` the fold is its own ``fold`` phase.
    """
    device = fuzzer.device
    adb = device.adb
    result = fuzzer.fuzz_app(package, campaign, fuzz)
    records = _adb_call(adb.logcat_records, device.clock, plane, handle, key=("logs", index))
    profiler = device.runtime.telemetry.profiler
    profiler.enter("fold")
    collector.fold(records, package, campaign.value)
    profiler.exit()
    _adb_call(adb.logcat_clear, device.clock, plane, handle, key=("clear", index))
    return result


def run_shard(
    spec: ShardSpec,
    kill_switch: Optional[KillSwitch] = None,
    telemetry_handle: Optional[Telemetry] = None,
    heartbeat: Optional[WorkerHeartbeat] = None,
    attempt: int = 1,
) -> ShardResult:
    """Run one shard end to end.

    *telemetry_handle* is passed by the in-process (``workers=1``) path so
    counters, spans and heartbeats land directly on the live handle; worker
    processes leave it ``None`` and get a shard-local handle whose registry
    and spans ride home on the :class:`ShardResult`.  *kill_switch* counts
    injections across the whole study: a plain
    :class:`~repro.faults.journal.KillSwitch` in-process, a
    :class:`~repro.faults.journal.SharedKillSwitch` under the supervised
    farm.  *heartbeat* and *attempt* are supervision plumbing: the worker
    beats the shared liveness beacon at shard start and every segment
    boundary, and the attempt number drives the deterministic worker-crash
    injector (spec- or env-triggered; see :mod:`repro.farm.health`).
    """
    owns_handle = telemetry_handle is None
    handle = _fresh_handle(spec) if owns_handle else telemetry_handle
    # Both paths reset the sampling phase here: every shard samples from a
    # fresh count whether it runs in-process or on a worker-local tracer,
    # which is what keeps the merged trace identical at any worker count.
    handle.tracer.begin_shard()
    _beat(heartbeat)
    # Bind explicitly even when no plan is armed: a forked worker inherits
    # the parent's module globals, and the fallback would leak the study
    # plane's (unsharded) schedule into the shard.
    plane = (
        FaultPlane(spec.plan, telemetry_handle=handle)
        if spec.plan is not None
        else NOOP_PLANE
    )
    runtime = RuntimeContext(fault_plane=plane, telemetry_handle=handle)
    if spec.study in ("wear", "phone"):
        result = _run_blind_shard(spec, handle, plane, runtime, kill_switch, heartbeat, attempt)
    elif spec.study == "guided":
        result = _run_guided_shard(spec, handle, runtime, kill_switch, heartbeat, attempt)
    elif spec.study == "fleet":
        result = _run_fleet_shard(spec, handle, kill_switch, heartbeat, attempt)
    else:
        raise ValueError(f"unknown shard study kind: {spec.study!r}")
    if owns_handle and handle.enabled:
        handle.flush()  # drain batched handles before the registry pickles
        result.metrics = handle.metrics
        result.spans = handle.tracer.spans()
        result.spans_dropped = handle.tracer.dropped
        result.spans_sampled_out = handle.tracer.sampled_out
        if handle.profiler.enabled:
            result.profile = handle.profiler.snapshot()
    return result


def _load_shard_state(journal: CheckpointJournal):
    state = journal.load_state()
    if state is not None and state.get("version") != SNAPSHOT_VERSION:
        raise ValueError(
            f"snapshot {journal.state_path} has version {state.get('version')}, "
            f"expected {SNAPSHOT_VERSION}"
        )
    return state


def _crash_policy(spec: ShardSpec) -> Optional[CrashPolicy]:
    """The shard's crash injection, spec field first, then the env hook."""
    if spec.crash is not None:
        return spec.crash
    return crash_for(spec.key)


def _beat(heartbeat: Optional[WorkerHeartbeat]) -> None:
    if heartbeat is not None:
        heartbeat.beat()


def _build_rig(
    spec: ShardSpec, runtime: RuntimeContext, kill_switch: Optional[KillSwitch]
) -> Tuple["Corpus", Optional[WearDevice], PhoneDevice, FuzzerLibrary]:
    """The paper's device recipe, fresh on a virtual clock at zero.

    Wear and guided shards get a Moto 360 paired with a Nexus 4, the wear
    corpus installed on the watch and QGJ deployed on both devices (built
    in that order: watch, phone, pair, install, deploy).  Phone shards get
    a lone Nexus 6 with the ``com.android.*`` corpus.  Returns the corpus,
    the watch (``None`` for the phone study), the phone, and a fuzzer
    bound to the fuzzed device.
    """
    config = spec.config
    if spec.study == "phone":
        corpus = build_phone_corpus(seed=config.phone_seed)
        phone = PhoneDevice(
            "nexus6",
            model="Nexus 6",
            logcat_capacity=config.logcat_capacity,
            runtime=runtime,
        )
        corpus.install(phone)
        fuzzer = FuzzerLibrary(
            phone, sender_package=QGJ_MOBILE_PACKAGE, kill_switch=kill_switch
        )
        return corpus, None, phone, fuzzer
    corpus = build_wear_corpus(seed=config.corpus_seed)
    watch = WearDevice("moto360", logcat_capacity=config.logcat_capacity, runtime=runtime)
    phone = PhoneDevice("nexus4", model="LG Nexus 4", runtime=runtime)
    pair(phone, watch)
    corpus.install(watch)
    deploy(phone, watch)  # QGJ on both devices, as in the paper's setup
    fuzzer = FuzzerLibrary(watch, sender_package=QGJ_WEAR_PACKAGE, kill_switch=kill_switch)
    return corpus, watch, phone, fuzzer


@contextlib.contextmanager
def _study_span(spec: ShardSpec, handle: Telemetry, clock, heartbeat):
    """Point telemetry at the shard's clock, beat, and span the shard's work."""
    _beat(heartbeat)
    if not handle.enabled:
        yield
        return
    # The shard's virtual time is its device's clock from here on.
    handle.set_clock(clock)
    with handle.tracer.span(
        "study", clock=clock, study=spec.study, config=spec.config.name, shard=spec.key
    ):
        yield


def _shard_result(spec, summary, collector, watch, phone, **extra) -> ShardResult:
    device = watch if watch is not None else phone
    return ShardResult(
        index=spec.index,
        key=spec.key,
        summary=summary,
        collector=collector,
        watch=watch,
        phone=phone,
        clock_ms=device.clock.now_ms(),
        **extra,
    )


def _run_blind_shard(spec, handle, plane, runtime, kill_switch, heartbeat, attempt) -> ShardResult:
    """A wear or phone shard: every ``(package, campaign)`` segment in order.

    With a journal, each completed segment is appended and the whole shard
    state snapshotted, so a resumed shard continues after its last durable
    segment on the restored device tree.
    """
    config = spec.config
    crash = _crash_policy(spec)
    journal = (
        CheckpointJournal(spec.journal_path) if spec.journal_path is not None else None
    )
    segments = [(p, c) for p in spec.packages for c in spec.campaigns]
    state = None
    if spec.resume and journal is not None:
        state = _load_shard_state(journal)

    if state is not None:
        # Owning-writer resume: this shard appends segment records below,
        # so a tail torn by the kill must be truncated off first.
        journal.repair()
        watch = state["watch"]
        phone = state["phone"]
        corpus = state["corpus"]
        collector = state["collector"]
        summary = state["summary"]
        fuzzer = state["fuzzer"]
        device = fuzzer.device
        # The device tree unpickles with an empty RuntimeContext (shared
        # across the tree by the pickle memo); rebind it to this shard's
        # scoped plane and handle, then adopt the captured fault stream.
        device.runtime.bind_faults(plane)
        device.runtime.bind_telemetry(handle)
        plane.adopt(device.clock, state["plane"])
        fuzzer.kill_switch = kill_switch
        start_index = state["index"]
        if start_index >= len(segments):
            # The shard had already completed when the study was killed:
            # its snapshot *is* the result, no segment needs re-running.
            return _shard_result(spec, summary, collector, watch, phone)
    else:
        corpus, watch, phone, fuzzer = _build_rig(spec, runtime, kill_switch)
        device = fuzzer.device
        collector = StudyCollector(corpus.packages())
        summary = FuzzSummary(device=device.name)
        start_index = 0
        if journal is not None:
            # Also on resume-with-no-snapshot: the kill landed before this
            # shard's first checkpoint, so it restarts from scratch.
            journal.start(
                {
                    "config": config.name,
                    "shard": spec.key,
                    "index": spec.index,
                    "fault_fingerprint": plane.fingerprint(),
                    "packages": list(spec.packages),
                    "campaigns": [campaign.value for campaign in spec.campaigns],
                }
            )
        # Only a fresh device starts with a clear: a resumed one was
        # cleared after its last checkpointed segment.
        _adb_call(device.adb.logcat_clear, device.clock, plane, handle, key=("clear", -1))

    with _study_span(spec, handle, device.clock, heartbeat):
        for index in range(start_index, len(segments)):
            package_name, campaign = segments[index]
            if crash is not None and crash.triggers(attempt, index):
                crash.fire(spec.key, attempt, index)
            app_result = run_segment(
                fuzzer, collector, package_name, campaign, config.fuzz, plane, handle, index
            )
            summary.apps.append(app_result)
            if journal is not None:
                journal.append(
                    {
                        "type": "segment",
                        "index": index,
                        "package": package_name,
                        "campaign": campaign.value,
                        "sent": app_result.sent,
                    }
                )
                journal.save_state(
                    {
                        "version": SNAPSHOT_VERSION,
                        "index": index + 1,
                        "watch": watch,
                        "phone": phone,
                        "corpus": corpus,
                        "collector": collector,
                        "summary": summary,
                        "fuzzer": fuzzer,
                        "plane": plane.capture(device.clock),
                    }
                )
            _beat(heartbeat)
    return _shard_result(spec, summary, collector, watch, phone)


def _run_guided_shard(spec, handle, runtime, kill_switch, heartbeat, attempt) -> ShardResult:
    """One guided shard: a fresh device pair running one package's blocks.

    Same device recipe as the wear shard, so a behaviour the blind study
    can reach is reachable here under the identical environment.  The
    guided study re-shards every round (fresh pair per ``(package,
    round)``), so a shard's observations depend only on its
    :class:`GuidedTask`, never on which worker ran it or what round
    preceded it on that worker.  Blocks classify dispatch outcomes
    directly, so the shard never pulls or clears the log.
    """
    if spec.guided is None:
        raise ValueError("guided shard needs a GuidedTask on spec.guided")
    if spec.journal_path is not None:
        raise ValueError("the guided study does not support checkpoint journals")
    crash = _crash_policy(spec)
    corpus, watch, phone, fuzzer = _build_rig(spec, runtime, kill_switch)
    if crash is not None and crash.triggers(attempt, 0):
        crash.fire(spec.key, attempt, 0)
    with _study_span(spec, handle, watch.clock, heartbeat):
        outcomes = run_guided_blocks(fuzzer, spec.guided, spec.config.fuzz)
    _beat(heartbeat)
    return _shard_result(
        spec,
        FuzzSummary(device=watch.name),
        StudyCollector(corpus.packages()),
        watch,
        phone,
        guided=outcomes,
    )


def _run_fleet_shard(spec, handle, kill_switch, heartbeat, attempt) -> ShardResult:
    """One fleet lane: a cooperative scheduler multiplexing many pairs.

    The lane -- not the pair -- is the farm's unit of distribution, so
    supervision (deadline, heartbeat liveness, retry-with-resume, poison
    quarantine) rides along unchanged.  Each pair builds its own scoped
    fault plane from its spec; the shard-level ``spec.plan`` is unused
    here by design.
    """
    from repro.fleet.lane import run_lane  # deferred: farm <-> fleet cycle

    if spec.fleet is None:
        raise ValueError("fleet shard needs a pair slice on spec.fleet")
    crash = _crash_policy(spec)
    if crash is not None and crash.triggers(attempt, 0):
        crash.fire(spec.key, attempt, 0)
    summaries = run_lane(
        spec.fleet,
        lane_index=spec.index,
        journal_path=spec.journal_path,
        resume=spec.resume,
        kill_switch=kill_switch,
        telemetry_handle=handle,
        heartbeat=heartbeat,
    )
    return ShardResult(
        index=spec.index,
        key=spec.key,
        summary=FuzzSummary(device=spec.key),
        collector=StudyCollector([]),
        watch=None,
        phone=None,
        clock_ms=sum(s.clock_ms for s in summaries),
        fleet=summaries,
    )
