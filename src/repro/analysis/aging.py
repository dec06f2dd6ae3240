"""Software-aging analytics (the paper's Section IV-E research direction).

The authors hypothesise that the observed reboots are "a manifestation of
error accumulation in the Android watch" and point to software-aging
research (Cotroneo et al., ISSRE'16) for detection metrics.  This module
implements that direction on top of the reproduction's log pipeline:

* extract an *error-event time series* from parsed log events (crashes,
  ANRs, handled exceptions, each with a severity weight);
* estimate the **aging trend** with the Mann-Kendall test (the standard
  non-parametric trend detector in the aging literature) plus a least-squares
  slope over windowed error intensity;
* reconstruct the device's **accumulated-damage trajectory** (the same
  exponential-decay model the simulated system server runs) and estimate
  time-to-exhaustion against a reboot threshold;
* recommend a **rejuvenation interval**: how often a watchdog restart would
  have to fire to keep accumulated damage below the reboot threshold.

Everything is pure computation over event lists, so it works on any log the
parser understands -- including, in principle, real logcat captures.
"""

from __future__ import annotations

import dataclasses
import math
from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.logparse import (
    AnrEvent,
    FatalExceptionEvent,
    HandledExceptionEvent,
    LogEvent,
    NativeSignalEvent,
    RebootEvent,
)

if TYPE_CHECKING:  # pragma: no cover - annotations only
    import numpy as np

#: Severity weights mirroring the system server's aging deposits.
WEIGHT_FATAL = 1.0
WEIGHT_ANR = 3.0
WEIGHT_HANDLED = 0.1
WEIGHT_NATIVE = 10.0


@dataclasses.dataclass(frozen=True)
class ErrorSample:
    """One weighted error observation."""

    time_ms: float
    weight: float
    kind: str


def error_series(events: Iterable[LogEvent]) -> List[ErrorSample]:
    """Extract the weighted error time series from parsed log events."""
    samples: List[ErrorSample] = []
    for event in events:
        if isinstance(event, FatalExceptionEvent):
            samples.append(ErrorSample(event.time_ms, WEIGHT_FATAL, "fatal"))
        elif isinstance(event, AnrEvent):
            samples.append(ErrorSample(event.time_ms, WEIGHT_ANR, "anr"))
        elif isinstance(event, HandledExceptionEvent):
            samples.append(ErrorSample(event.time_ms, WEIGHT_HANDLED, "handled"))
        elif isinstance(event, NativeSignalEvent):
            samples.append(ErrorSample(event.time_ms, WEIGHT_NATIVE, "native"))
    samples.sort(key=lambda s: s.time_ms)
    return samples


def windowed_intensity(
    samples: Sequence[ErrorSample], window_ms: float = 10_000.0
) -> Tuple[np.ndarray, np.ndarray]:
    """Bucket the series into fixed windows → (window centres, total weight)."""
    import numpy as np

    if window_ms <= 0:
        raise ValueError(f"window_ms must be positive, got {window_ms}")
    if not samples:
        return np.array([]), np.array([])
    start = samples[0].time_ms
    end = samples[-1].time_ms
    buckets = max(1, int((end - start) / window_ms) + 1)
    centres = start + (np.arange(buckets) + 0.5) * window_ms
    weights = np.zeros(buckets)
    for sample in samples:
        index = min(buckets - 1, int((sample.time_ms - start) / window_ms))
        weights[index] += sample.weight
    return centres, weights


@dataclasses.dataclass
class TrendResult:
    """Output of the aging-trend analysis."""

    kendall_tau: float
    p_value: float
    slope_per_minute: float
    is_aging: bool
    windows: int


def mann_kendall_trend(
    samples: Sequence[ErrorSample],
    window_ms: float = 10_000.0,
    alpha: float = 0.05,
) -> TrendResult:
    """Mann-Kendall trend test over windowed error intensity.

    A significant positive tau means error intensity grows with uptime --
    the signature of software aging.  Falls back to a neutral result when
    there are too few windows to test.
    """
    centres, weights = windowed_intensity(samples, window_ms)
    if len(centres) < 4:
        return TrendResult(
            kendall_tau=0.0,
            p_value=1.0,
            slope_per_minute=0.0,
            is_aging=False,
            windows=len(centres),
        )
    # numpy and scipy serve only these analytics: imported where they run,
    # they stay off every other `repro` import (CLI, daemon, farm workers).
    import numpy as np
    from scipy import stats

    tau, p_value = stats.kendalltau(centres, weights)
    tau = 0.0 if math.isnan(tau) else float(tau)
    p_value = 1.0 if math.isnan(p_value) else float(p_value)
    slope, _intercept = np.polyfit(centres / 60_000.0, weights, 1)
    return TrendResult(
        kendall_tau=tau,
        p_value=p_value,
        slope_per_minute=float(slope),
        is_aging=bool(tau > 0 and p_value < alpha),
        windows=len(centres),
    )


def damage_trajectory(
    samples: Sequence[ErrorSample],
    half_life_ms: float = 60_000.0,
    resolution_ms: float = 1_000.0,
) -> Tuple[np.ndarray, np.ndarray]:
    """The exponentially-decaying accumulated-damage curve over time.

    This reconstructs, from logs alone, the same quantity the simulated
    system server tracks internally -- letting the analyst *see* the
    escalation that precedes a reboot.
    """
    import numpy as np

    if not samples:
        return np.array([]), np.array([])
    decay = math.log(2.0) / half_life_ms
    start = samples[0].time_ms
    end = samples[-1].time_ms + half_life_ms + resolution_ms
    times = np.arange(start, end, resolution_ms)
    damage = np.zeros_like(times, dtype=float)
    for sample in samples:
        mask = times >= sample.time_ms
        damage[mask] += sample.weight * np.exp(-decay * (times[mask] - sample.time_ms))
    return times, damage


def peak_damage(samples: Sequence[ErrorSample], half_life_ms: float = 60_000.0) -> float:
    """Maximum accumulated damage reached anywhere in the series."""
    _, damage = damage_trajectory(samples, half_life_ms)
    return float(damage.max()) if damage.size else 0.0


@dataclasses.dataclass
class RejuvenationPlan:
    """A watchdog-restart schedule keeping damage under a threshold."""

    threshold: float
    peak_damage: float
    exceeds_threshold: bool
    #: Restart interval (ms) that would keep peak damage below threshold,
    #: or ``None`` when no restart is needed.
    recommended_interval_ms: Optional[float]


def plan_rejuvenation(
    samples: Sequence[ErrorSample],
    threshold: float = 8.0,
    half_life_ms: float = 60_000.0,
) -> RejuvenationPlan:
    """Find the coarsest restart interval that keeps damage sub-threshold.

    Models rejuvenation as a periodic state reset: damage accumulated in one
    interval never carries into the next.  Searches intervals by halving
    from the full series duration until the per-interval peak stays under
    *threshold* (or gives up at 1 s).
    """
    peak = peak_damage(samples, half_life_ms)
    if peak < threshold:
        return RejuvenationPlan(
            threshold=threshold,
            peak_damage=peak,
            exceeds_threshold=False,
            recommended_interval_ms=None,
        )
    if not samples:  # pragma: no cover - peak>0 implies samples
        raise ValueError("no samples")
    duration = samples[-1].time_ms - samples[0].time_ms + 1.0
    interval = duration
    while interval > 1_000.0:
        if _max_interval_damage(samples, interval, half_life_ms) < threshold:
            return RejuvenationPlan(
                threshold=threshold,
                peak_damage=peak,
                exceeds_threshold=True,
                recommended_interval_ms=interval,
            )
        interval /= 2.0
    return RejuvenationPlan(
        threshold=threshold,
        peak_damage=peak,
        exceeds_threshold=True,
        recommended_interval_ms=1_000.0,
    )


def _max_interval_damage(
    samples: Sequence[ErrorSample], interval_ms: float, half_life_ms: float
) -> float:
    start = samples[0].time_ms
    worst = 0.0
    bucket: List[ErrorSample] = []
    boundary = start + interval_ms
    for sample in samples:
        while sample.time_ms >= boundary:
            if bucket:
                worst = max(worst, peak_damage(bucket, half_life_ms))
                bucket = []
            boundary += interval_ms
        bucket.append(
            ErrorSample(sample.time_ms, sample.weight, sample.kind)
        )
    if bucket:
        worst = max(worst, peak_damage(bucket, half_life_ms))
    return worst


def aging_report(events: Sequence[LogEvent], threshold: float = 8.0) -> str:
    """Human-readable aging analysis of one log segment."""
    samples = error_series(events)
    trend = mann_kendall_trend(samples)
    plan = plan_rejuvenation(samples, threshold=threshold)
    reboots = sum(1 for e in events if isinstance(e, RebootEvent))
    lines = [
        "SOFTWARE AGING ANALYSIS",
        "-" * 60,
        f"error events: {len(samples)}   reboots observed: {reboots}",
        f"Mann-Kendall tau: {trend.kendall_tau:+.3f} (p={trend.p_value:.3f}, "
        f"{trend.windows} windows) -> {'AGING' if trend.is_aging else 'no significant trend'}",
        f"error-intensity slope: {trend.slope_per_minute:+.3f} weight/min",
        f"peak accumulated damage: {plan.peak_damage:.2f} (reboot threshold {threshold})",
    ]
    if plan.recommended_interval_ms is not None:
        lines.append(
            "rejuvenation: restart every "
            f"{plan.recommended_interval_ms / 1000.0:.0f}s would keep damage sub-threshold"
        )
    else:
        lines.append("rejuvenation: not needed at this error intensity")
    return "\n".join(lines)
