"""Merging shard outputs into the study-wide artifacts.

The analysis layer (tables, figures, exports, ``dumpsys telemetry``) never
learns the farm exists: shard summaries concatenate through
:meth:`FuzzSummary.merge`, and the rows each shard's collector saw evidence
for fold through :meth:`StudyCollector.merge` into a collector seeded from
the study corpus, which owns the component universe.  Worker-local
telemetry is absorbed into the live handle -- counters sum, gauges take
the last shard's level, histogram buckets add elementwise, and spans are
re-based onto the live tracer's id sequence.  Everything merges in shard
(spec) order, so the merged study reads exactly like the serial run that
visited the packages in the same order.

A supervised run may hand over ``None`` in place of a poisoned shard
(``--allow-partial``); every merge helper skips those holes, and the
accompanying :class:`~repro.farm.health.StudyHealthReport` itemizes the
coverage they dropped.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.analysis.manifest import StudyCollector
from repro.farm.shard import ShardResult
from repro.qgj.results import FuzzSummary

if TYPE_CHECKING:  # pragma: no cover - typing-only imports
    from repro.android.package_manager import PackageInfo
    from repro.fleet.pairs import PairSummary


def _present(results: Sequence[Optional[ShardResult]]) -> List[ShardResult]:
    return [result for result in results if result is not None]


def merge_summaries(results: Sequence[Optional[ShardResult]]) -> FuzzSummary:
    return FuzzSummary.merge([result.summary for result in _present(results)])


def merge_collectors(
    results: Sequence[Optional[ShardResult]], packages: Sequence["PackageInfo"]
) -> StudyCollector:
    """Merge the shards' evidence rows over the study corpus's *packages*."""
    return StudyCollector.merge(
        [result.collector for result in _present(results)], packages
    )


def merge_fleet(results: Sequence[Optional[ShardResult]]) -> List["PairSummary"]:
    """Flatten lane results into one fleet, ordered by pair id.

    Re-ordering by the pair's global id -- never by lane or completion
    order -- is what makes the merged fleet byte-identical at any
    (lanes x workers) packing: the same pairs produce the same summaries,
    and this is the only place their order is decided.
    """
    summaries: List["PairSummary"] = []
    seen = set()
    for result in _present(results):
        for summary in result.fleet or ():
            if summary.pair_id in seen:
                raise ValueError(f"pair {summary.pair_id} reported by two lanes")
            seen.add(summary.pair_id)
            summaries.append(summary)
    return sorted(summaries, key=lambda summary: summary.pair_id)


def absorb_telemetry(handle, results: Sequence[Optional[ShardResult]]) -> None:
    """Fold worker-local telemetry into *handle*, in shard order.

    In-process shards carry no telemetry payload (they recorded straight
    onto the live handle), so this is a no-op for them and for disabled
    telemetry.
    """
    if handle is None or not handle.enabled:
        return
    for result in _present(results):
        if result.metrics is not None:
            handle.metrics.merge_from(result.metrics)
        if result.spans or result.spans_dropped:
            handle.tracer.absorb(result.spans, result.spans_dropped)
        if result.profile:
            handle.profiler.merge(result.profile)
