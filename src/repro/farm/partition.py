"""Corpus partitioning and per-shard seed/plan derivation.

The partitioning unit is the *package*: the experiment's log-collection
rhythm already isolates evidence per ``(package, campaign)`` segment, the
corpus generators seed every campaign from the spec (never from device
history), and a reboot aborts only the current app -- so one package's
segments carry no state into another's.  That makes per-package shards the
largest split that is still provably behaviour-preserving.

Seeds derive as ``base xor crc32(shard_key)``: stable across processes and
Python invocations (``hash()`` is salted by ``PYTHONHASHSEED`` and is
banned here), unique per shard key, and independent of shard *order* -- so
adding or removing packages never reshuffles the other shards' streams.
"""

from __future__ import annotations

import dataclasses
import zlib
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro.faults.plan import FaultPlan
from repro.farm.shard import ShardSpec
from repro.qgj.campaigns import Campaign

if TYPE_CHECKING:  # pragma: no cover - avoids the experiments<->farm cycle
    from repro.experiments.config import ExperimentConfig


def shard_packages(packages: Sequence[str]) -> List[Tuple[str, Tuple[str, ...]]]:
    """Partition *packages* into ``(shard_key, package_group)`` pairs.

    One package per shard: the finest behaviour-preserving grain, and the
    one that keeps every shard's wall-clock roughly proportional to its
    component count.
    """
    return [(package, (package,)) for package in packages]


def derive_seed(base_seed: int, shard_key: str) -> int:
    """A stable 32-bit per-shard seed: ``base xor crc32(key)``."""
    return (base_seed ^ zlib.crc32(shard_key.encode("utf-8"))) & 0xFFFFFFFF


def derive_plan(plan: Optional[FaultPlan], shard_seed: int) -> Optional[FaultPlan]:
    """The shard's private fault plan: same intervals, shard-unique seed.

    Each shard runs on its own virtual clock from zero; re-seeding (rather
    than sharing the study plan's stream) keeps shards from all drawing the
    *same* fault schedule and is what makes a shard's faults independent of
    every other shard's existence.  An empty plan stays empty whatever the
    seed, preserving the "empty plan is no plan" property.
    """
    if plan is None:
        return None
    return dataclasses.replace(plan, seed=plan.seed ^ shard_seed)


def plan_shards(
    study: str,
    config: "ExperimentConfig",
    packages: Sequence[str],
    campaigns: Sequence[Campaign],
    base_plan: Optional[FaultPlan] = None,
    manifest=None,
    resume: bool = False,
) -> List[ShardSpec]:
    """Build the full shard plan for one study.

    An empty *packages* still yields one (empty) shard, so a degenerate
    study builds its rig and returns an empty summary exactly as the serial
    harness did.  *manifest* (a :class:`~repro.farm.journal.StudyManifest`)
    assigns each shard its per-shard journal path.  The telemetry fields
    stay at their defaults: :func:`~repro.farm.pool.drive_study` stamps
    the live handle's state onto every spec it runs.
    """
    groups = shard_packages(packages) or [("", ())]
    specs: List[ShardSpec] = []
    for index, (key, group) in enumerate(groups):
        seed = derive_seed(config.corpus_seed, key)
        specs.append(
            ShardSpec(
                study=study,
                index=index,
                key=key,
                packages=tuple(group),
                campaigns=tuple(campaigns),
                config=config,
                seed=seed,
                plan=derive_plan(base_plan, seed),
                journal_path=(
                    manifest.shard_journal_path(index) if manifest is not None else None
                ),
                resume=resume,
            )
        )
    return specs
