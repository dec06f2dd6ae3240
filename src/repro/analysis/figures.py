"""Data builders for the paper's figures (2, 3a, 3b, 4).

Each function takes a folded :class:`~repro.analysis.manifest.StudyCollector`
and returns plain dict/Counter data that the report renderers and the
benchmark harness print; nothing here re-reads logs.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List

from repro.analysis.manifest import Manifestation, StudyCollector
from repro.analysis.rootcause import equal_blame
from repro.android.package_manager import AppOrigin

NO_EXCEPTION = "(no exception)"


def fig2_exception_distribution(
    collector: StudyCollector,
) -> Dict[str, object]:
    """Fig. 2: uncaught/observed exception types by component kind.

    SecurityExceptions are excluded from the per-class distribution (they
    are reported separately as the overall share, the paper's 81.3%).
    Each exception class is counted once per component.
    """
    per_kind = collector.exception_distribution(include_security=False)
    merged: Counter = Counter()
    for counts in per_kind.values():
        merged.update(counts)
    return {
        "by_kind": {kind.value: dict(counts) for kind, counts in per_kind.items()},
        "overall": dict(merged),
        "security_share": collector.security_share(),
    }


def fig3a_manifestations(collector: StudyCollector) -> Dict[str, object]:
    """Fig. 3a: component counts (and shares) per manifestation."""
    counts = collector.manifestation_counts()
    total = sum(counts.values())
    return {
        "counts": {m.label: counts.get(m, 0) for m in Manifestation},
        "total_components": total,
        "shares": {
            m.label: (counts.get(m, 0) / total if total else 0.0) for m in Manifestation
        },
    }


def fig3b_rootcause_by_manifestation(collector: StudyCollector) -> Dict[str, Dict[str, float]]:
    """Fig. 3b: root-cause exception shares within each manifestation."""
    records = collector.component_records()
    result: Dict[str, Dict[str, float]] = {}

    # Crash: the dominant fatal root class of each crash component.
    crash_counter: Counter = Counter()
    for record in records:
        if record.manifestation() == Manifestation.CRASH:
            dominant = record.dominant_crash_class()
            if dominant:
                crash_counter[dominant] += 1
    result[Manifestation.CRASH.label] = _normalise(crash_counter)

    # Hang: the exception logged just before the handler blocked.
    hang_counter: Counter = Counter()
    for record in records:
        if record.manifestation() == Manifestation.HANG:
            if record.anr_cause_classes:
                dominant = min(
                    record.anr_cause_classes,
                    key=lambda cls: (-record.anr_cause_classes[cls], cls),
                )
                hang_counter[dominant] += 1
            else:
                hang_counter[NO_EXCEPTION] += 1
    result[Manifestation.HANG.label] = _normalise(hang_counter)

    # Reboot: tight-knit escalation -- pooled classes, equal blame.
    pooled: List[str] = []
    for post_mortem in collector.reboots:
        for cls in post_mortem.culprit_classes:
            if cls not in pooled:
                pooled.append(cls)
    result[Manifestation.REBOOT.label] = equal_blame(pooled)

    # No effect: mostly silent; ~10% threw but handled it.
    no_effect_counter: Counter = Counter()
    for record in records:
        if record.manifestation() == Manifestation.NO_EFFECT:
            if record.handled_classes:
                dominant = min(
                    record.handled_classes,
                    key=lambda cls: (-record.handled_classes[cls], cls),
                )
                no_effect_counter[dominant] += 1
            else:
                no_effect_counter[NO_EXCEPTION] += 1
    result[Manifestation.NO_EFFECT.label] = _normalise(no_effect_counter)
    return result


def fig3b_base_counts(collector: StudyCollector) -> Dict[str, int]:
    """The per-manifestation component counts shown at each bar's base."""
    counts = collector.manifestation_counts()
    return {m.label: counts.get(m, 0) for m in Manifestation}


def fig4_crashes_by_app_class(collector: StudyCollector) -> Dict[str, object]:
    """Fig. 4: crash-causing exceptions grouped by built-in vs third party.

    Percentages are "calculated taking the two application classes
    together"; the headline app-level crash rates (64% of built-in apps vs
    46% of third-party) are included.
    """
    class_counters: Dict[str, Counter] = {
        AppOrigin.BUILT_IN.value: Counter(),
        AppOrigin.THIRD_PARTY.value: Counter(),
    }
    crashed_apps: Dict[str, set] = {
        AppOrigin.BUILT_IN.value: set(),
        AppOrigin.THIRD_PARTY.value: set(),
    }
    app_totals: Counter = Counter()
    for record in collector.component_records():
        meta = collector.package_meta(record.package)
        if meta is None:
            continue
        origin = meta.origin.value
        if record.fatal_root_classes:
            dominant = record.dominant_crash_class()
            class_counters[origin][dominant] += 1
            crashed_apps[origin].add(record.package)
    seen_packages = set()
    for record in collector.component_records():
        meta = collector.package_meta(record.package)
        if meta is None or record.package in seen_packages:
            continue
        seen_packages.add(record.package)
        app_totals[meta.origin.value] += 1

    total_crash_components = sum(sum(c.values()) for c in class_counters.values())
    shares = {
        origin: {
            cls: count / total_crash_components if total_crash_components else 0.0
            for cls, count in counter.items()
        }
        for origin, counter in class_counters.items()
    }
    rates = {
        origin: (
            len(crashed_apps[origin]) / app_totals[origin] if app_totals[origin] else 0.0
        )
        for origin in class_counters
    }
    return {
        "class_counts": {o: dict(c) for o, c in class_counters.items()},
        "class_shares": shares,
        "app_crash_rate": rates,
        "apps_crashed": {o: sorted(s) for o, s in crashed_apps.items()},
        "apps_total": dict(app_totals),
    }


def _normalise(counter: Counter) -> Dict[str, float]:
    total = sum(counter.values())
    if total == 0:
        return {}
    return {cls: count / total for cls, count in counter.items()}
