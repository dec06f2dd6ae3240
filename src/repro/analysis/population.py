"""Population-level analysis of a fleet run: crash rates per cohort.

The paper's study measured one watch; the fleet kernel's question is the
population one -- *how does reliability vary across a heterogeneous
device population?*  This module turns the merged
:class:`~repro.fleet.pairs.PairSummary` list into per-cohort crash-rate
distributions (crashes per 1000 injected intents, p50/p95/p99 by the
nearest-rank method) plus the totals the ROADMAP's population report asks
for.

Everything is deterministic: summaries arrive merged by pair id, cohorts
render in sorted name order, and nearest-rank percentiles never
interpolate -- so the rendered report is byte-identical at any
(lanes x workers) packing of the same fleet.
"""

from __future__ import annotations

import dataclasses
import math
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - break the fleet <-> analysis cycle
    from repro.fleet.pairs import PairSummary


def nearest_rank(values: Sequence[float], pct: float) -> float:
    """The nearest-rank percentile: the ceil(p/100 * n)-th smallest value.

    Never interpolates, so the result is always a value that actually
    occurred -- and, unlike interpolating estimators, is bit-stable across
    platforms (no float blending of neighbours).
    """
    if not values:
        raise ValueError("nearest_rank needs at least one value")
    if not 0.0 < pct <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {pct}")
    ordered = sorted(values)
    rank = math.ceil(pct / 100.0 * len(ordered))
    return ordered[rank - 1]


@dataclasses.dataclass(frozen=True)
class CohortStats:
    """One cohort's slice of the fleet, with its crash-rate distribution."""

    cohort: str
    model: str
    pairs: int
    sent: int
    delivered: int
    crashes: int
    anrs: int
    reboots: int
    quarantined: int
    compat_mismatches: int
    ambient_transitions: int
    #: Crashes per 1000 injected intents, nearest-rank over the cohort's pairs.
    crash_rate_p50: float
    crash_rate_p95: float
    crash_rate_p99: float


@dataclasses.dataclass(frozen=True)
class PopulationReport:
    """The fleet-wide report: cohorts in sorted name order."""

    pairs: int
    sent: int
    crashes: int
    cohorts: Tuple[CohortStats, ...]

    def cohort(self, name: str) -> CohortStats:
        for stats in self.cohorts:
            if stats.cohort == name:
                return stats
        raise KeyError(name)


def population_report(summaries: Sequence[PairSummary]) -> PopulationReport:
    """Fold merged pair summaries into the per-cohort population report."""
    by_cohort: Dict[str, List[PairSummary]] = {}
    for summary in summaries:
        by_cohort.setdefault(summary.cohort, []).append(summary)
    cohorts = []
    for name in sorted(by_cohort):
        members = by_cohort[name]
        rates = [member.crash_rate for member in members]
        cohorts.append(
            CohortStats(
                cohort=name,
                model=members[0].model,
                pairs=len(members),
                sent=sum(m.sent for m in members),
                delivered=sum(m.delivered for m in members),
                crashes=sum(m.crashes for m in members),
                anrs=sum(m.anrs for m in members),
                reboots=sum(m.reboots for m in members),
                quarantined=sum(m.quarantined for m in members),
                compat_mismatches=sum(m.compat_mismatches for m in members),
                ambient_transitions=sum(m.ambient_transitions for m in members),
                crash_rate_p50=nearest_rank(rates, 50.0),
                crash_rate_p95=nearest_rank(rates, 95.0),
                crash_rate_p99=nearest_rank(rates, 99.0),
            )
        )
    return PopulationReport(
        pairs=len(summaries),
        sent=sum(s.sent for s in summaries),
        crashes=sum(s.crashes for s in summaries),
        cohorts=tuple(cohorts),
    )


def render_population(report: PopulationReport) -> str:
    """Render the population report as a fixed-width text table."""
    lines = [
        "Fleet population report",
        f"  pairs: {report.pairs}  intents sent: {report.sent}  "
        f"crashes: {report.crashes}",
        "",
        f"  {'cohort':<10} {'model':<14} {'pairs':>5} {'sent':>7} "
        f"{'crash':>6} {'anr':>5} {'boot':>5} {'comp':>6} "
        f"{'p50':>7} {'p95':>7} {'p99':>7}",
    ]
    for stats in report.cohorts:
        lines.append(
            f"  {stats.cohort:<10} {stats.model:<14} {stats.pairs:>5} "
            f"{stats.sent:>7} {stats.crashes:>6} {stats.anrs:>5} "
            f"{stats.reboots:>5} {stats.compat_mismatches:>6} "
            f"{stats.crash_rate_p50:>7.2f} {stats.crash_rate_p95:>7.2f} "
            f"{stats.crash_rate_p99:>7.2f}"
        )
    lines.append("")
    lines.append("  crash-rate percentiles: crashes per 1000 intents, nearest-rank")
    return "\n".join(lines)
