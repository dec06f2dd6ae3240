"""Sample statistics and the regression rule shared by ``run.py`` and ``compare.py``."""

from __future__ import annotations

import statistics
from typing import Dict, Sequence

IMPROVED, UNCHANGED, REGRESSED, UNRESOLVED = "improved", "unchanged", "regressed", "unresolved"


def spread(samples: Sequence[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    if len(samples) < 2:
        return 0.0
    median = statistics.median(samples)
    if median == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / abs(median)


def describe(samples: Sequence[float]) -> Dict[str, float]:
    """Median (the reported value), min, max, sample count and spread."""
    return {
        "value": statistics.median(samples),
        "min": min(samples),
        "max": max(samples),
        "n": len(samples),
        "spread": spread(samples),
    }


def worsening(parent: float, change: float, better: str) -> float:
    """How much worse *change* reads than *parent*, as a share of *parent*
    (negative when it reads better)."""
    delta = (change - parent) / abs(parent)
    return delta if better == "lower" else -delta


def verdict(parent: Sequence[float], change: Sequence[float], bound: float, better: str) -> str:
    """Classify one (metric, workload) pair against its bound.

    A metric whose run-to-run spread on either side is wider than its
    bound cannot tell a regression from noise: it is unresolved, unless
    every change sample reads better than every parent sample.  Otherwise
    the medians decide: worse by more than the bound is a regression,
    better by more than the bound an improvement.
    """
    worse = worsening(statistics.median(parent), statistics.median(change), better)
    if max(spread(parent), spread(change)) > bound:
        best_parent = min(parent) if better == "lower" else max(parent)
        if all(worsening(best_parent, sample, better) < 0 for sample in change):
            return IMPROVED
        return UNRESOLVED
    if worse > bound:
        return REGRESSED
    if worse < -bound:
        return IMPROVED
    return UNCHANGED
