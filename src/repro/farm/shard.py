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

The paper's harness lives here once: :func:`build_rig` is the one recipe
for its three test beds (a Moto 360 paired with a Nexus 4, a lone Nexus 6,
and a Watch emulator paired with a Nexus 6), and :func:`run_segment` is one
segment of the rhythm.  Every device the program fuzzes comes from the
recipe -- wear, phone and guided shards, fleet pairs, the QGJ-UI study and
the ablations -- and the wear and phone studies share one blind-shard body
around the step, which the ablations also call directly.

Checkpointing is per shard and holds results, never devices: a journalled
shard writes its :class:`~repro.faults.journal.CheckpointJournal` header
when it starts and one result record once its last segment folds.  A
resumed shard that finished returns that record, once its journal header
matches the live shard; any other shard re-runs from :func:`build_rig`,
which is exact because the shard is deterministic on its own seed and
clock.
"""

from __future__ import annotations

import contextlib
import dataclasses
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro.analysis.manifest import StudyCollector
from repro.android.clock import Clock
from repro.android.runtime import RuntimeContext
from repro.apps.catalog import build_phone_corpus, build_wear_corpus, emulator_packages
from repro.farm.health import CrashPolicy, WorkerHeartbeat, crash_for
from repro.faults.journal import CheckpointJournal, KillSwitch
from repro.faults.plan import FaultPlan
from repro.faults.plane import NOOP_PLANE, FaultPlane
from repro.faults.retry import MAX_ATTEMPTS_CAP, RetryPolicy
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

if TYPE_CHECKING:  # pragma: no cover - farm<->experiments cycle; guided loads on use
    from repro.apps.catalog import Corpus
    from repro.apps.profiles import DeviceProfile
    from repro.experiments.config import ExperimentConfig
    from repro.fleet.pairs import PairSpec, PairSummary
    from repro.guided.engine import BlockOutcome, GuidedTask

#: Backoff for the operator-side adb calls (log pull / clear between
#: segments); injection-side retries are the fuzzer's own policy.  Adb drops
#: that fall due during a long segment pile up and each attempt consumes
#: one, so the budget is the cap: a paper-scale chaos segment can meet a
#: streak of 11 drops at one pull.  The schedule draws its delays in order,
#: so a longer budget leaves the first delays, and every run that never
#: exhausted the old one, unchanged.
LOG_PULL_RETRY = RetryPolicy(
    max_attempts=MAX_ATTEMPTS_CAP, base_delay_ms=200.0, max_delay_ms=5_000.0
)

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
    guided: Optional["GuidedTask"] = None
    #: One lane's pair slice for ``study == "fleet"`` (see
    #: :mod:`repro.fleet`); ``None`` for the single-pair studies.
    fleet: Optional[Tuple["PairSpec", ...]] = None


@dataclasses.dataclass
class ShardResult:
    """What one shard ships back for merging (picklable by design)."""

    index: int
    key: str
    clock_ms: float
    #: The blind body's summary and folded collector (``None`` for the
    #: guided and fleet bodies, which ship their own outcomes below).
    summary: Optional[FuzzSummary] = None
    collector: Optional[StudyCollector] = None
    #: Telemetry captured by a worker-local handle; ``None``/empty when the
    #: shard ran in-process against the live handle (nothing to merge).
    metrics: Optional[MetricsRegistry] = None
    spans: List[Span] = dataclasses.field(default_factory=list)
    spans_dropped: int = 0
    spans_sampled_out: int = 0
    #: The worker-local profiler's snapshot (``None`` unless profiling).
    profile: Optional[dict] = None
    #: Block outcomes for a guided shard (``None`` for the blind studies).
    guided: Optional[List["BlockOutcome"]] = None
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
    body = _SHARD_BODIES.get(spec.study)
    if body is None:
        raise ValueError(f"unknown shard study kind: {spec.study!r}")
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
    policy = spec.crash if spec.crash is not None else crash_for(spec.key)

    def crash(segment: int) -> None:
        """Fire the shard's injected worker crash if it is due at *segment*."""
        if policy is not None and policy.triggers(attempt, segment):
            policy.fire(spec.key, attempt, segment)

    result = body(spec, handle, plane, runtime, kill_switch, heartbeat, crash)
    if owns_handle and handle.enabled:
        handle.flush()  # drain batched handles before the registry pickles
        result.metrics = handle.metrics
        result.spans = handle.tracer.spans()
        result.spans_dropped = handle.tracer.dropped
        result.spans_sampled_out = handle.tracer.sampled_out
        if handle.profiler.enabled:
            result.profile = handle.profiler.snapshot()
    return result


def _beat(heartbeat: Optional[WorkerHeartbeat]) -> None:
    if heartbeat is not None:
        heartbeat.beat()


#: Device names and models of the paired beds: (watch, its model, phone,
#: its model).  The names reach boot log lines and adb error text.
_PAIRED_BEDS = {
    "wear": ("moto360", "Moto 360", "nexus4", "LG Nexus 4"),
    "emulator": ("watch-emulator", "Android Watch Emulator (API 25)", "nexus6", "Nexus 6"),
}


def build_corpus(kind: str, config: "ExperimentConfig") -> "Corpus":
    """The population a *kind* of bed fuzzes: ``com.android.*`` or wear apps."""
    if kind == "phone":
        return build_phone_corpus(seed=config.phone_seed)
    return build_wear_corpus(seed=config.corpus_seed)


def build_rig(
    config: "ExperimentConfig",
    kind: str = "wear",
    runtime: Optional[RuntimeContext] = None,
    kill_switch: Optional[KillSwitch] = None,
    *,
    corpus: Optional["Corpus"] = None,
    packages: Optional[Sequence[str]] = None,
    profile: Optional["DeviceProfile"] = None,
    pair_id: Optional[int] = None,
    clock: Optional[Clock] = None,
) -> Tuple["Corpus", FuzzerLibrary]:
    """One of the paper's three test beds, fresh on its own virtual clock.

    ``wear`` (Sec. III-D) pairs a Moto 360 with an LG Nexus 4, installs the
    wear corpus on the watch and deploys QGJ on both, in that order;
    ``phone`` (Sec. IV-C) is a lone Nexus 6 with the ``com.android.*``
    corpus and the QGJ Mobile sender; ``emulator`` (Sec. III-E) pairs a
    Watch emulator with a Nexus 6 and installs only
    :func:`~repro.apps.catalog.emulator_packages`, with no QGJ.  *corpus*
    reuses a built population and *packages* installs only that slice of
    it; a fleet pair also passes its cohort *profile* (watch model, link
    latency), *pair_id* (``watch-NNNN`` / ``phone-NNNN``) and the
    scheduler's *clock*.  Returns the corpus and a fuzzer bound to the
    fuzzed device (``fuzzer.device``).
    """
    if corpus is None:
        corpus = build_corpus(kind, config)
    capacity = config.logcat_capacity
    if kind == "phone":
        phone = PhoneDevice("nexus6", logcat_capacity=capacity, runtime=runtime, clock=clock)
        corpus.install(phone, only=packages)
        return corpus, FuzzerLibrary(phone, QGJ_MOBILE_PACKAGE, kill_switch=kill_switch)
    watch_name, watch_model, phone_name, phone_model = _PAIRED_BEDS[kind]
    if pair_id is not None:
        watch_name, phone_name = f"watch-{pair_id:04d}", f"phone-{pair_id:04d}"
    link = {}
    if profile is not None:
        watch_model, link = profile.model, {"latency_ms": profile.latency_ms}
    watch = WearDevice(
        watch_name, model=watch_model, is_emulator=kind == "emulator",
        logcat_capacity=capacity, runtime=runtime, clock=clock,
    )
    phone = PhoneDevice(phone_name, model=phone_model, runtime=runtime)
    pair(phone, watch, **link)
    if kind == "emulator":
        packages = [package.package for package in emulator_packages(corpus)]
    corpus.install(watch, only=packages)
    if kind == "wear":
        deploy(phone, watch)
    return corpus, FuzzerLibrary(watch, QGJ_WEAR_PACKAGE, kill_switch=kill_switch)


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


def _run_blind_shard(spec, handle, plane, runtime, kill_switch, heartbeat, crash) -> ShardResult:
    """A wear or phone shard: every ``(package, campaign)`` segment in order.

    With a journal, the shard writes its header when it starts and its
    result record once the last segment folds.  On resume, a finished
    shard returns that record; an unfinished one re-runs from a fresh rig.
    """
    journal = (
        CheckpointJournal(spec.journal_path) if spec.journal_path is not None else None
    )
    config = spec.config
    header = {
        "config": config.name,
        "shard": spec.key,
        "index": spec.index,
        "fault_fingerprint": plane.fingerprint(),
        "packages": list(spec.packages),
        "campaigns": [campaign.value for campaign in spec.campaigns],
    }
    if spec.resume and journal is not None:
        record = journal.load_state()
        if record is not None:
            _check_record(journal, record, header)
            return record
    corpus, fuzzer = build_rig(spec.config, spec.study, runtime, kill_switch)
    device = fuzzer.device
    collector = StudyCollector(corpus.packages())
    summary = FuzzSummary(device=device.name)
    if journal is not None:
        journal.start(header)
    _adb_call(device.adb.logcat_clear, device.clock, plane, handle, key=("clear", -1))
    segments = [(p, c) for p in spec.packages for c in spec.campaigns]
    with _study_span(spec, handle, device.clock, heartbeat):
        for index, (package_name, campaign) in enumerate(segments):
            crash(index)
            summary.apps.append(
                run_segment(
                    fuzzer, collector, package_name, campaign, config.fuzz, plane, handle, index
                )
            )
            _beat(heartbeat)
    result = ShardResult(spec.index, spec.key, device.clock.now_ms(), summary, collector)
    if journal is not None:
        journal.save_state(result)
    return result


def _check_record(journal: CheckpointJournal, record, header) -> None:
    """Refuse a result record this shard, as specified now, did not write.

    The record's own journal header must match the live shard field for
    field -- config, key, index, fault-plan fingerprint, packages and
    campaigns -- so a record left by an earlier run under another plan is
    never merged into this one.
    """
    if not isinstance(record, ShardResult) or record.key != header["shard"]:
        raise ValueError(
            f"{journal.state_path} is not a result record of shard {header['shard']!r}"
        )
    recorded = journal.header()
    for field, live in header.items():
        if recorded.get(field) != live:
            raise ValueError(
                f"{journal.state_path} was recorded under {field} "
                f"{recorded.get(field)!r}, not {live!r} -- start a fresh run"
            )


def _run_guided_shard(spec, handle, plane, runtime, kill_switch, heartbeat, crash) -> ShardResult:
    """One guided shard: a fresh device pair running one package's blocks.

    Same device recipe as the wear shard, so a behaviour the blind study
    can reach is reachable here under the identical environment.  The
    guided study re-shards every round (fresh pair per ``(package,
    round)``), so a shard's observations depend only on its
    :class:`GuidedTask`, never on which worker ran it or what round
    preceded it on that worker.  Blocks classify dispatch outcomes
    directly, so the shard never pulls or clears the log.
    """
    from repro.guided.engine import run_guided_blocks

    if spec.guided is None:
        raise ValueError("guided shard needs a GuidedTask on spec.guided")
    if spec.journal_path is not None:
        raise ValueError("the guided study does not support checkpoint journals")
    _, fuzzer = build_rig(spec.config, "wear", runtime, kill_switch)
    watch = fuzzer.device
    crash(0)
    with _study_span(spec, handle, watch.clock, heartbeat):
        outcomes = run_guided_blocks(fuzzer, spec.guided, spec.config.fuzz)
    _beat(heartbeat)
    return ShardResult(spec.index, spec.key, watch.clock.now_ms(), guided=outcomes)


def _run_fleet_shard(spec, handle, plane, runtime, kill_switch, heartbeat, crash) -> ShardResult:
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
    crash(0)
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
        spec.index, spec.key, sum(s.clock_ms for s in summaries), fleet=summaries
    )


#: The body each ``ShardSpec.study`` runs.  All take ``(spec, handle, plane,
#: runtime, kill_switch, heartbeat, crash)``; ``crash(segment)`` fires the
#: shard's injected worker crash when it is due there.
_SHARD_BODIES = {
    "wear": _run_blind_shard,
    "phone": _run_blind_shard,
    "guided": _run_guided_shard,
    "fleet": _run_fleet_shard,
}
