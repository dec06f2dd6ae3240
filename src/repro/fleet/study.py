"""The fleet study: plan pairs, pack lanes, supervise, merge, report.

This is the fleet kernel's top layer, shaped like
:func:`repro.experiments.wear_experiment.run_wear_study` so the runner and
the journaling/resume/kill-switch machinery compose unchanged:

1. plan ``--fleet N`` pair specs from the cohort cycle (every pair a pure
   function of its global id);
2. pack them into ``--lanes M`` strided slices, one farm shard per lane;
3. run the lanes through the supervised farm (``--workers`` processes,
   deadlines, heartbeat liveness, retry-with-resume, poison quarantine);
4. merge pair summaries back into global pair-id order and fold them into
   the per-cohort population report.

**Packing invariance.**  Pairs share no simulated state and derive
everything from ``pair_id``, lanes only decide which scheduler multiplexes
which subset, and the merge re-orders by pair id -- so the merged fleet,
the population report, and every telemetry *counter* are byte-identical at
any ``(lanes x workers)`` packing of the same fleet.  The fleet metric
series are pre-registered here in sorted cohort order for exactly that
reason: lane-local binding order depends on pair completion order, which
packing *does* change.  Gauges are the deliberate exception -- lane
occupancy is a property of the packing itself, and last-level gauges (the
logcat buffer depth) report whichever pair wrote last.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro import faults, telemetry
from repro.analysis.population import (
    PopulationReport,
    population_report,
    render_population,
)
from repro.experiments.config import QUICK, ExperimentConfig
from repro.farm import (
    ShardSpec,
    StudyHealthReport,
    StudyManifest,
    drive_study,
    merge_fleet,
)
from repro.fleet.lane import (
    CRASHES_SITE,
    INTENTS_SENT_SITE,
    LANE_OCCUPANCY_SITE,
    PAIRS_ACTIVE_SITE,
    PAIRS_FINISHED_SITE,
    shared_corpus,
)
from repro.fleet.pairs import PairSpec, PairSummary
from repro.fleet.plan import plan_lanes, plan_pairs
from repro.apps.profiles import DEFAULT_COHORT_SPEC, parse_cohort_spec
from repro.qgj.campaigns import Campaign

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.guided.study import GuidedConfig


@dataclasses.dataclass
class FleetStudyResult:
    """Everything a fleet run produces."""

    summaries: List[PairSummary]
    report: PopulationReport
    config: ExperimentConfig
    fleet_size: int
    cohorts: str
    lanes: int
    #: Final virtual-clock sum of every lane, in lane order.
    lane_clock_ms: Tuple[float, ...] = ()
    health: Optional[StudyHealthReport] = None

    @property
    def intents_sent(self) -> int:
        return sum(summary.sent for summary in self.summaries)

    @property
    def crash_count(self) -> int:
        return sum(summary.crashes for summary in self.summaries)

    def virtual_hours(self) -> float:
        return sum(s.clock_ms for s in self.summaries) / 3_600_000.0

    def render_report(self) -> str:
        return render_population(self.report)

    def render(self) -> str:
        """The population report and its intents / pairs / lanes line."""
        return (
            f"{self.render_report()}\n"
            f"{self.intents_sent} intents across {self.fleet_size} pairs in "
            f"{self.lanes} lane(s), {self.virtual_hours():.1f} virtual pair-hours"
        )


def _fleet_shards(
    pairs: Sequence[PairSpec],
    lanes: int,
    config: ExperimentConfig,
    campaigns: Sequence[Campaign],
    manifest: Optional[StudyManifest],
    resume: bool,
) -> List[ShardSpec]:
    """One farm shard per lane; the lane's pair slice rides on the spec."""
    specs: List[ShardSpec] = []
    for index, lane in enumerate(plan_lanes(list(pairs), lanes)):
        packages = tuple(sorted({p for spec in lane for p in spec.packages}))
        specs.append(
            ShardSpec(
                study="fleet",
                index=index,
                key=f"lane-{index:02d}",
                packages=packages,
                campaigns=tuple(campaigns),
                config=config,
                seed=config.corpus_seed,
                plan=None,  # pairs carry their own cohort-composed plans
                journal_path=(
                    manifest.shard_journal_path(index) if manifest is not None else None
                ),
                resume=resume,
                fleet=lane,
            )
        )
    return specs


def _preregister_fleet_series(handle, pairs: Sequence[PairSpec], lanes: int) -> None:
    """Create every fleet metric series up front, in sorted label order.

    Lane code binds series lazily as pairs finish, and completion order
    depends on the packing; registering the full label space here (all at
    zero) pins the export ordering to the fleet plan alone.
    """
    if handle is None or not handle.enabled:
        return
    metrics = handle.metrics
    for cohort in sorted({spec.cohort for spec in pairs}):
        CRASHES_SITE.bind(metrics, (cohort,))
        INTENTS_SENT_SITE.bind(metrics, (cohort,))
    PAIRS_FINISHED_SITE.bind(metrics)
    PAIRS_ACTIVE_SITE.bind(metrics)
    lane_count = min(lanes, len(pairs)) or 1
    for lane in range(lane_count):
        LANE_OCCUPANCY_SITE.bind(metrics, (f"{lane:03d}",))


def run_fleet_study(
    fleet_size: int,
    config: ExperimentConfig = QUICK,
    cohorts: str = DEFAULT_COHORT_SPEC,
    lanes: int = 1,
    packages: Optional[Sequence[str]] = None,
    campaigns: Sequence[Campaign] = tuple(Campaign),
    journal_path: Optional[str] = None,
    resume: bool = False,
    kill_after_injections: Optional[int] = None,
    workers: int = 1,
    shard_timeout: Optional[float] = None,
    max_shard_attempts: Optional[int] = None,
    allow_partial: bool = False,
    guided: Optional["GuidedConfig"] = None,
) -> FleetStudyResult:
    """Run a heterogeneous device fleet through the cooperative kernel.

    *fleet_size* pairs are drawn round-robin from the *cohorts* spec (see
    :func:`repro.apps.profiles.parse_cohort_spec`) and packed into *lanes*
    cooperative schedulers, distributed over *workers* processes.  Results
    are byte-identical at any ``(lanes, workers)`` packing.

    Journaling mirrors the wear study: a manifest plus one checkpoint
    journal per lane, each completed pair appended durably; a later call
    with ``resume=True`` (same config, fault plan, fleet, cohorts, lanes
    and workers) replays completed pairs from the journals and re-runs
    only the in-flight ones, converging on the identical merged fleet.
    *kill_after_injections* arms the same study-wide kill switch the other
    studies use (shared across workers at ``workers>1``).
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    manifest = StudyManifest(journal_path) if journal_path is not None else None
    if resume:
        if manifest is None:
            raise ValueError("resume=True requires journal_path")
        header = manifest.validate_resume(
            study="fleet",
            config=config.name,
            fault_fingerprint=faults.fingerprint(),
            workers=workers,
        )
        fleet_size = int(header["fleet_size"])
        cohorts = str(header["cohorts"])
        lanes = int(header["lanes"])
        packages = list(header["packages"])
        campaigns = tuple(Campaign(value) for value in header["campaigns"])
        if header.get("guided") is not None:
            from repro.guided.study import GuidedConfig as _GuidedConfig

            guided = _GuidedConfig(**header["guided"])
        else:
            guided = None

    parse_cohort_spec(cohorts)  # validate early, before any device is built
    if packages is None:
        corpus = shared_corpus(config.corpus_seed)
        packages = [app.package.package for app in corpus.apps]
    plane = faults.get()
    pairs = plan_pairs(
        fleet_size,
        cohorts,
        config,
        packages,
        campaigns,
        base_plan=plane.plan if plane.armed else None,
        guided=guided,
    )
    specs = _fleet_shards(pairs, lanes, config, campaigns, manifest, resume)
    if manifest is not None and not resume:
        manifest.start(
            config=config.name,
            fault_fingerprint=faults.fingerprint(),
            packages=list(packages),
            campaigns=[campaign.value for campaign in campaigns],
            workers=workers,
            shards=specs,
            extra={
                "fleet_size": fleet_size,
                "cohorts": cohorts,
                "lanes": lanes,
                "guided": dataclasses.asdict(guided) if guided is not None else None,
            },
        )
    _preregister_fleet_series(telemetry.get(), pairs, lanes)
    results, health = drive_study(
        specs,
        workers=workers,
        kill_after_injections=kill_after_injections,
        shard_timeout=shard_timeout,
        max_shard_attempts=max_shard_attempts,
        allow_partial=allow_partial,
    )
    summaries = merge_fleet(results)
    return FleetStudyResult(
        summaries=summaries,
        report=population_report(summaries),
        config=config,
        fleet_size=fleet_size,
        cohorts=cohorts,
        lanes=lanes,
        lane_clock_ms=tuple(result.clock_ms for result in results),
        health=health,
    )
