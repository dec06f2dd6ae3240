"""The guided study: rounds of bandit-allocated blocks over the farm.

Structure of one run::

    round:  scheduler.allocate(k)  ->  funded (package, campaign) arms
            group by package       ->  one GuidedTask / ShardSpec each
            drive_study(...)       ->  BlockOutcomes (any worker count)
            attribution            ->  corpus admissions in allocation order
            scheduler.update(...)  ->  next round's allocation

The determinism argument, end to end: the scheduler is consulted only at
round barriers, on statistics merged from every shard of the previous
round; blocks execute on fresh device pairs whose virtual clocks start at
zero, so a block's observations are a pure function of its task; and
attribution walks the *allocation* order, not result-arrival order.  No
step can observe the worker count, so the corpus, the schedule, and the
report are byte-identical at ``--workers 1``, ``2``, and ``4`` -- the CI
smoke diffs exactly that.

Budget accounting charges each arm its *allocated* block, not its actual
sends: an arm that aborts early (reboot, quarantine) still consumes its
slice, so the study always terminates after ``ceil(budget / block)``
funded blocks and the spent total never exceeds the budget.  Actual sends
are reported separately.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Dict, List, Optional, Sequence, Tuple

from repro.android.component import ComponentKind
from repro.apps.catalog import build_wear_corpus
from repro.faults.journal import CheckpointJournal
from repro.guided.corpus import BehaviorCorpus
from repro.guided.engine import BlockOutcome, GuidedBlock, GuidedTask
from repro.guided.scheduler import ArmKey, make_scheduler
from repro.qgj.campaigns import Campaign, campaign_size
from repro.telemetry.metrics import ARM_BUDGET, CORPUS_SIZE, NOVEL_BEHAVIOURS

#: Component kinds the guided loop injects into (same surface as the blind
#: wear study).
_FUZZED_KINDS = (ComponentKind.ACTIVITY, ComponentKind.SERVICE)


@dataclasses.dataclass(frozen=True)
class GuidedConfig:
    """Knobs of one guided run (all of them part of the schedule's identity)."""

    scheduler: str = "ucb"          # "ucb" | "thompson"
    #: Intents per funded arm per round.
    block_size: int = 200
    #: Arms funded per round (clamped to the arm count).
    arms_per_round: int = 8
    #: Probability an intent comes from the mutation pool (when non-empty)
    #: rather than the campaign grammar.
    pool_rate: float = 0.8
    seed: int = 0
    exploration: float = 0.1
    #: Total intent budget; ``None`` means "what the blind study would
    #: spend" (:func:`blind_equivalent_budget`).
    budget: Optional[int] = None

    def __post_init__(self) -> None:
        if self.block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {self.block_size}")
        if self.arms_per_round < 1:
            raise ValueError(f"arms_per_round must be >= 1, got {self.arms_per_round}")
        if not 0.0 <= self.pool_rate <= 1.0:
            raise ValueError(f"pool_rate must be in [0, 1], got {self.pool_rate}")
        if self.budget is not None and self.budget < 1:
            raise ValueError(f"budget must be >= 1, got {self.budget}")


def blind_equivalent_budget(
    config,
    packages: Optional[Sequence[str]] = None,
    campaigns: Sequence[Campaign] = tuple(Campaign),
) -> int:
    """The intent volume the blind study would nominally spend.

    Per component, each of *campaigns* sends ``campaign_size(campaign,
    stride)`` intents; summed over the fuzzable components of *packages*
    (default: the whole wear catalog).  This is the equal-budget baseline
    the guided-vs-blind ablation holds fixed.
    """
    corpus = build_wear_corpus(seed=config.corpus_seed)
    wanted = set(packages) if packages is not None else None
    per_component = sum(
        campaign_size(campaign, config.fuzz.stride_for(campaign))
        for campaign in campaigns
    )
    total = 0
    for package in corpus.packages():
        if wanted is not None and package.package not in wanted:
            continue
        fuzzable = sum(1 for info in package.components if info.kind in _FUZZED_KINDS)
        total += fuzzable * per_component
    return total


@dataclasses.dataclass
class RoundRecord:
    """One round of the schedule (what ``schedule.jsonl`` persists)."""

    index: int
    #: Funded arms in allocation order:
    #: (package, campaign, allocated, sent, novel, rebooted, aborted).
    funded: List[Tuple[str, str, int, int, int, bool, bool]]
    corpus_size: int
    remaining: int

    def to_wire(self) -> Dict[str, object]:
        return {
            "type": "round",
            "index": self.index,
            "funded": [
                {
                    "package": package,
                    "campaign": campaign,
                    "allocated": allocated,
                    "sent": sent,
                    "novel": novel,
                    "rebooted": rebooted,
                    "aborted": aborted,
                }
                for package, campaign, allocated, sent, novel, rebooted, aborted in self.funded
            ],
            "corpus_size": self.corpus_size,
            "remaining": self.remaining,
        }


@dataclasses.dataclass
class GuidedStudyResult:
    """Everything one guided run produced, deterministically renderable."""

    config_name: str
    guided: GuidedConfig
    budget: int
    total_sent: int
    rounds: List[RoundRecord]
    corpus: BehaviorCorpus
    #: (component, exception, frame) -> hits, summed over every block.
    crash_buckets: Dict[Tuple[str, str, str], int]
    #: Outcome label -> count over every injection.
    outcomes: Dict[str, int]
    #: Final scheduler state (per-arm plays/intents/novel).
    scheduler_snapshot: Dict[str, object]
    #: Sum of the shard virtual clocks (deterministic; no wall time here).
    clock_ms: float

    def distinct_buckets(self) -> int:
        return len(self.crash_buckets)

    def render(self) -> str:
        """The study report.  Byte-identical across worker counts: every
        line derives from merged, allocation-ordered state."""
        lines = [
            "Guided fuzzing study",
            "====================",
            f"config: {self.config_name}  scheduler: {self.guided.scheduler}"
            f"  block: {self.guided.block_size}  arms/round: {self.guided.arms_per_round}"
            f"  pool rate: {self.guided.pool_rate}  seed: {self.guided.seed}",
            f"budget: {self.budget} intents  sent: {self.total_sent}"
            f"  rounds: {len(self.rounds)}",
            f"corpus: {len(self.corpus)} behaviours"
            f"  digest: {self.corpus.digest()[:16]}",
            f"distinct crash buckets: {self.distinct_buckets()}",
            "",
            "outcomes:",
        ]
        for label in sorted(self.outcomes):
            lines.append(f"  {label:20s} {self.outcomes[label]}")
        lines.append("")
        lines.append("arms (plays / intents / novel):")
        for arm in self.scheduler_snapshot["arms"]:
            lines.append(
                f"  {arm['package']:28s} {arm['campaign']}  "
                f"{arm['plays']:3d} / {arm['intents']:6d} / {arm['novel']:4d}"
            )
        lines.append("")
        lines.append("top crash buckets:")
        ranked = sorted(self.crash_buckets.items(), key=lambda kv: (-kv[1], kv[0]))
        for (component, exception, frame), hits in ranked[:10]:
            short = exception.rsplit(".", 1)[-1]
            lines.append(f"  {hits:6d}  {short} @ {component} ({frame})")
        lines.append("")
        return "\n".join(lines)

    def save(self, corpus_dir: str) -> None:
        """Persist the corpus and the schedule under *corpus_dir*.

        Both artifacts go through the checkpoint-journal layer and are
        byte-identical whenever the run was -- the CI smoke diffs the
        files straight across worker counts.
        """
        os.makedirs(corpus_dir, exist_ok=True)
        self.corpus.save(
            os.path.join(corpus_dir, "corpus.jsonl"), seed=self.guided.seed
        )
        schedule = CheckpointJournal(os.path.join(corpus_dir, "schedule.jsonl"))
        schedule.start(
            {
                "kind": "guided-schedule",
                "config": self.config_name,
                "scheduler": self.guided.scheduler,
                "seed": self.guided.seed,
                "budget": self.budget,
                "rounds": len(self.rounds),
            }
        )
        for record in self.rounds:
            schedule.append(record.to_wire())


def _record_telemetry(handle, result: GuidedStudyResult, novel_this_round: int) -> None:
    if handle is None or not handle.enabled:
        return
    registry = handle.metrics
    registry.gauge(CORPUS_SIZE, "Behaviour corpus size.").set(len(result.corpus))
    if novel_this_round:
        registry.counter(
            NOVEL_BEHAVIOURS, "Novel behaviours admitted to the corpus."
        ).inc(novel_this_round)
    budget_gauge = registry.gauge(
        ARM_BUDGET,
        "Intent budget spent per (package, campaign) arm.",
        ("package", "campaign"),
    )
    for arm in result.scheduler_snapshot["arms"]:
        budget_gauge.labels(package=arm["package"], campaign=arm["campaign"]).set(
            arm["intents"]
        )


def run_guided_study(
    config,
    guided: GuidedConfig = GuidedConfig(),
    packages: Optional[Sequence[str]] = None,
    workers: int = 1,
    shard_timeout: Optional[float] = None,
    max_shard_attempts: Optional[int] = None,
    campaigns: Sequence[Campaign] = tuple(Campaign),
) -> GuidedStudyResult:
    """Run one feedback-guided study over the wear catalog.

    *config* is an :class:`~repro.experiments.config.ExperimentConfig`
    (its fuzz pacing, corpus seed, and strides all apply); *packages* and
    *campaigns* restrict the arm universe and the default budget (default:
    every catalog app, all four campaigns).  *workers*
    fans each round's package shards out exactly like the blind farm --
    and, per the determinism contract, never changes the result.
    *shard_timeout* and *max_shard_attempts* tune the supervisor as in
    :func:`~repro.experiments.wear_experiment.run_wear_study`; there is no
    partial mode, because a round cannot attribute a poisoned package's
    blocks.  Telemetry goes to the live handle (``telemetry.get()``).
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    # Imported here, not at module level: the farm's shard layer imports
    # the guided *engine* (to run guided shards), which initializes this
    # package -- a module-level farm import would close that cycle.
    from repro import faults, telemetry
    from repro.farm.partition import derive_plan, derive_seed
    from repro.farm.pool import drive_study
    from repro.farm.shard import ShardSpec

    # An armed fault plan rides into every round's shards exactly like the
    # blind farm: re-seeded per package, so each package sees the same
    # deterministic schedule whatever round (or worker) runs it -- shard
    # devices start their virtual clocks at zero every round.
    study_plane = faults.get()
    base_plan = study_plane.plan if study_plane.armed else None

    app_corpus = build_wear_corpus(seed=config.corpus_seed)
    if packages is None:
        packages = [app.package.package for app in app_corpus.apps]
    else:
        known_packages = {app.package.package for app in app_corpus.apps}
        for package in packages:
            if package not in known_packages:
                raise ValueError(f"package not in the wear catalog: {package}")
    arms: List[ArmKey] = [
        (package, campaign.value) for package in packages for campaign in campaigns
    ]
    budget = (
        guided.budget
        if guided.budget is not None
        else blind_equivalent_budget(config, packages, campaigns)
    )
    scheduler = make_scheduler(
        guided.scheduler, arms, seed=guided.seed, exploration=guided.exploration
    )
    corpus = BehaviorCorpus()
    crash_buckets: Dict[Tuple[str, str, str], int] = {}
    outcomes: Dict[str, int] = {}
    rounds: List[RoundRecord] = []
    total_sent = 0
    clock_ms = 0.0
    remaining = budget
    round_index = 0
    result = GuidedStudyResult(
        config_name=config.name,
        guided=guided,
        budget=budget,
        total_sent=0,
        rounds=rounds,
        corpus=corpus,
        crash_buckets=crash_buckets,
        outcomes=outcomes,
        scheduler_snapshot=scheduler.snapshot(),
        clock_ms=0.0,
    )
    while remaining > 0:
        allocation = scheduler.allocate(min(guided.arms_per_round, len(arms)))
        funded: List[Tuple[ArmKey, int]] = []
        for arm in allocation:
            if remaining < 1:
                break
            block = min(guided.block_size, remaining)
            funded.append((arm, block))
            remaining -= block
        # Group the round's blocks per package, preserving allocation order
        # within each package (blocks run in that order on one device).
        per_package: Dict[str, List[GuidedBlock]] = {}
        for (package, campaign_value), block in funded:
            per_package.setdefault(package, []).append(
                GuidedBlock(
                    campaign=campaign_value,
                    budget=block,
                    # Prior spend fast-forwards the arm's grammar stream so
                    # this block continues where its last one stopped.
                    offset=scheduler.states[(package, campaign_value)].intents,
                )
            )
        known = tuple(fp.as_tuple() for fp in corpus.fingerprints())
        specs = []
        for index, (package, blocks) in enumerate(per_package.items()):
            task = GuidedTask(
                package=package,
                round_index=round_index,
                blocks=tuple(blocks),
                pool=tuple(corpus.entries_for(package)),
                known=known,
                seed=derive_seed(config.corpus_seed ^ guided.seed, package),
                pool_rate=guided.pool_rate,
            )
            shard_seed = derive_seed(config.corpus_seed, package)
            specs.append(
                ShardSpec(
                    study="guided",
                    index=index,
                    key=f"{package}#r{round_index}",
                    packages=(package,),
                    campaigns=(),
                    config=config,
                    seed=shard_seed,
                    plan=derive_plan(base_plan, shard_seed),
                    guided=task,
                )
            )
        results, _health = drive_study(
            specs,
            workers=workers,
            shard_timeout=shard_timeout,
            max_shard_attempts=max_shard_attempts,
        )
        by_arm: Dict[ArmKey, BlockOutcome] = {}
        for shard_result in results:
            clock_ms += shard_result.clock_ms
            for outcome in shard_result.guided or ():
                by_arm[(outcome.package, outcome.campaign)] = outcome
        # Attribution: walk the allocation order (worker-independent), admit
        # each block's locally-novel entries against the global corpus, and
        # credit the arm with what actually landed.
        novel_this_round = 0
        funded_records: List[Tuple[str, str, int, int, int, bool, bool]] = []
        for (package, campaign_value), block in funded:
            outcome = by_arm[(package, campaign_value)]
            novel = sum(1 for entry in outcome.new_entries if corpus.add(entry))
            novel_this_round += novel
            scheduler.update((package, campaign_value), intents=block, novel=novel)
            total_sent += outcome.sent
            for bucket, hits in outcome.crash_buckets.items():
                crash_buckets[bucket] = crash_buckets.get(bucket, 0) + hits
            for label, count in outcome.outcomes.items():
                outcomes[label] = outcomes.get(label, 0) + count
            funded_records.append(
                (
                    package,
                    campaign_value,
                    block,
                    outcome.sent,
                    novel,
                    outcome.rebooted,
                    outcome.aborted,
                )
            )
        rounds.append(
            RoundRecord(
                index=round_index,
                funded=funded_records,
                corpus_size=len(corpus),
                remaining=remaining,
            )
        )
        result.scheduler_snapshot = scheduler.snapshot()
        result.total_sent = total_sent
        result.clock_ms = clock_ms
        _record_telemetry(telemetry.get(), result, novel_this_round)
        round_index += 1
    return result
