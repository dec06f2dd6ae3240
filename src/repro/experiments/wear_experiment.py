"""The full QGJ-Master study on the wearable (Sections III-D / IV-A..B).

Reproduces the paper's main experiment end to end:

1. build the 46-app corpus and install it on a simulated Moto 360 paired
   with a Nexus 4;
2. deploy QGJ on both devices;
3. for every app, run all four Fuzz Intent Campaigns one after another with
   the paper's pacing;
4. after each (app, campaign) segment, pull the device log over adb, fold
   it into the :class:`~repro.analysis.manifest.StudyCollector`, and clear
   the buffer (the per-app log-collection rhythm of the original study);
5. return everything the tables/figures need.

Execution is sharded per package through :mod:`repro.farm`: every package
runs on its own freshly built device pair with its own scoped fault plane
and telemetry handle.  ``workers=1`` (the default) runs the shards
sequentially in-process; ``workers=N`` fans them out across supervised
worker processes (deadlines, heartbeat liveness, bounded retries, poison
quarantine -- see :mod:`repro.farm.supervisor`).  Because each shard is a
pure function of its spec, the merged study is bit-identical at any worker
count, even when a shard needed a retry to complete.  The phone comparison
runs through this same driver (see :mod:`repro.experiments.phone_experiment`).
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence, Tuple

from repro import faults
from repro.analysis.manifest import StudyCollector
from repro.apps.catalog import Corpus
from repro.experiments.config import QUICK, ExperimentConfig
from repro.farm import (
    StudyHealthReport,
    StudyManifest,
    drive_study,
    merge_collectors,
    merge_summaries,
    plan_shards,
)
from repro.farm.shard import build_corpus
from repro.qgj.campaigns import Campaign
from repro.qgj.results import FuzzSummary


@dataclasses.dataclass
class StudyResult:
    """Everything a wear- or phone-study run produces."""

    collector: StudyCollector
    summary: FuzzSummary
    corpus: Corpus
    config: ExperimentConfig
    #: Final virtual-clock reading of every shard, in shard order.  The
    #: study's virtual time is their sum: each clock advance (pacing,
    #: backoff, boot) happens in exactly one shard's segment.
    shard_clock_ms: Tuple[float, ...] = ()
    #: Per-shard supervision account (attempts, outcomes, dropped coverage).
    #: ``health.degraded`` marks a partial study that quarantined shards.
    health: Optional[StudyHealthReport] = None

    @property
    def reboot_count(self) -> int:
        return len(self.collector.reboots)

    @property
    def intents_sent(self) -> int:
        return self.summary.total_sent

    def virtual_hours(self) -> float:
        return sum(self.shard_clock_ms) / 3_600_000.0

    def render(self) -> str:
        """The QGJ summary and its intents / reboots / virtual-hours line."""
        return (
            f"{self.summary.render()}\n"
            f"{self.intents_sent} intents, {self.reboot_count} reboots, "
            f"{self.virtual_hours():.1f} virtual hours"
        )


def run_wear_study(
    config: ExperimentConfig = QUICK,
    packages: Optional[Sequence[str]] = None,
    campaigns: Sequence[Campaign] = tuple(Campaign),
    journal_path: Optional[str] = None,
    resume: bool = False,
    kill_after_injections: Optional[int] = None,
    workers: int = 1,
    shard_timeout: Optional[float] = None,
    max_shard_attempts: Optional[int] = None,
    allow_partial: bool = False,
    kind: str = "wear",
) -> StudyResult:
    """Run the complete wearable fuzzing study, or on *kind*'s test bed.

    *kind* picks the bed and its population (see
    :func:`~repro.farm.shard.build_rig`); ``"phone"`` is the phone study.

    With *journal_path*, a study manifest plus one checkpoint journal per
    shard record each shard's header and, once the shard finishes, its
    result; a later call with ``resume=True`` (same study kind, config,
    fault plan, and worker count) loads the finished shards, re-runs the
    rest, and -- because every shard is deterministic on its own seed and
    virtual clock -- produces the identical final summary.  *kill_after_injections* arms
    a kill switch that raises :class:`~repro.faults.errors.CampaignKilled`
    mid-campaign, simulating the host dying (used by the resume tests and
    the CI chaos smoke); at ``workers>1`` the count is shared across worker
    processes, so "after N injections" means N study-wide at any worker
    count.

    *shard_timeout* (seconds), *max_shard_attempts*, and *allow_partial*
    tune the supervised executor at ``workers>1``: a shard that misses its
    deadline or whose worker dies is retried up to *max_shard_attempts*
    times (bit-identical by the determinism contract), and a shard failing
    every attempt either aborts the study
    (:class:`~repro.farm.health.ShardPoisonedError`) or -- with
    *allow_partial* -- is quarantined while the study completes degraded,
    with the dropped coverage itemized in ``result.health``.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    manifest = StudyManifest(journal_path) if journal_path is not None else None
    if resume:
        if manifest is None:
            raise ValueError("resume=True requires journal_path")
        header = manifest.validate_resume(
            study=kind,
            config=config.name,
            fault_fingerprint=faults.fingerprint(),
            workers=workers,
        )
        packages = list(header["packages"])
        campaigns = tuple(Campaign(value) for value in header["campaigns"])

    corpus = build_corpus(kind, config)
    if packages is None:
        packages = [app.package.package for app in corpus.apps]
    plane = faults.get()
    specs = plan_shards(
        kind,
        config,
        packages,
        campaigns,
        base_plan=plane.plan if plane.armed else None,
        manifest=manifest,
        resume=resume,
    )
    if manifest is not None and not resume:
        manifest.start(
            config=config.name,
            fault_fingerprint=faults.fingerprint(),
            packages=list(packages),
            campaigns=[campaign.value for campaign in campaigns],
            workers=workers,
            shards=specs,
        )
    results, health = drive_study(
        specs,
        workers=workers,
        kill_after_injections=kill_after_injections,
        shard_timeout=shard_timeout,
        max_shard_attempts=max_shard_attempts,
        allow_partial=allow_partial,
    )
    return StudyResult(
        collector=merge_collectors(results, corpus.packages()),
        summary=merge_summaries(results),
        corpus=corpus,
        config=config,
        shard_clock_ms=tuple(result.clock_ms for result in results),
        health=health,
    )
