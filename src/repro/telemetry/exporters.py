"""Exposition: Prometheus text, JSONL traces, summary table, profile.

Four consumers, four formats:

* ``render_prometheus`` -- the `text exposition format
  <https://prometheus.io/docs/instrumenting/exposition_formats/>`_, for
  scraping or diffing campaign runs;
* ``spans_to_jsonl`` -- one finished span per line, the tracer's ring
  buffer (a whole clean quick or paper run), for offline trace analysis;
* ``render_summary`` -- the human-readable table behind
  ``adb shell dumpsys telemetry`` (plus the ``SELF-PROFILE`` section when
  the profiler is armed);
* ``render_collapsed`` -- the self-profiler as flamegraph-ready
  collapsed stacks (``phase;subphase <microseconds>``).

``export_snapshot`` writes them next to each other, which is what the
runner's ``--telemetry DIR`` flag calls (``profile.collapsed`` appears
only under ``--profile``, so default exports stay byte-stable).
"""

from __future__ import annotations

import json
import math
import os
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.telemetry.metrics import (
    CRASHES,
    FLEET_LANE_OCCUPANCY,
    FLEET_PAIRS_ACTIVE,
    FLEET_PAIRS_FINISHED,
    INTENTS_SENT,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.trace import Tracer

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.telemetry import Telemetry
    from repro.telemetry.profiler import PhaseProfiler


def _escape_label_value(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _render_labels(labels: Dict[str, str], extra: Optional[Dict[str, str]] = None) -> str:
    merged = {**labels, **extra} if extra else dict(labels)
    if not merged:
        return ""
    body = ",".join(
        f'{name}="{_escape_label_value(str(value))}"' for name, value in merged.items()
    )
    return "{" + body + "}"


def _format_value(value: float) -> str:
    """One sample value as Prometheus-conformant text.

    Non-finite values use the spec's spellings (``+Inf``/``-Inf``/``NaN``
    -- ``repr`` would emit Python's ``inf``/``nan``, which scrapers
    reject), integral values drop the trailing ``.0``, and everything else
    uses Python's shortest round-trip float text, which Go's float parser
    (the format's reference reader) accepts.
    """
    value = float(value)
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    as_int = int(value)
    return str(as_int) if value == as_int else str(value)


def render_prometheus(registry: MetricsRegistry) -> str:
    """The registry as Prometheus text exposition."""
    lines: List[str] = []
    for metric in registry.collect():
        if metric.help:
            lines.append(f"# HELP {metric.name} {metric.help}")
        lines.append(f"# TYPE {metric.name} {metric.kind}")
        if isinstance(metric, Histogram):
            for labels, child in metric.samples():
                cumulative = child.cumulative_counts()
                for bound, count in zip(child.buckets, cumulative):
                    le = _render_labels(labels, {"le": _format_value(bound)})
                    lines.append(f"{metric.name}_bucket{le} {count}")
                inf = _render_labels(labels, {"le": "+Inf"})
                lines.append(f"{metric.name}_bucket{inf} {child.count}")
                lines.append(
                    f"{metric.name}_sum{_render_labels(labels)} {_format_value(child.sum)}"
                )
                lines.append(f"{metric.name}_count{_render_labels(labels)} {child.count}")
        elif isinstance(metric, (Counter, Gauge)):
            for labels, child in metric.samples():
                lines.append(
                    f"{metric.name}{_render_labels(labels)} {_format_value(child.value)}"
                )
    return "\n".join(lines) + ("\n" if lines else "")


def spans_to_jsonl(tracer: Tracer) -> str:
    """Finished spans, one JSON object per line (oldest retained first)."""
    return "\n".join(json.dumps(span.to_dict(), sort_keys=True) for span in tracer.spans())


def parse_jsonl_spans(text: str) -> List[Dict[str, object]]:
    """Inverse of :func:`spans_to_jsonl` (used by tests and trace tooling)."""
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def _fleet_section(registry: MetricsRegistry) -> List[str]:
    """The FLEET block of the summary, present only for fleet runs.

    Gated on the fleet pair counter existing in the registry: only
    :func:`repro.fleet.study.run_fleet_study` registers it, so every
    non-fleet export stays byte-identical to releases that predate the
    fleet kernel.
    """
    metrics = {metric.name: metric for metric in registry.collect()}
    finished = metrics.get(FLEET_PAIRS_FINISHED)
    if finished is None:
        return []
    lines = ["", "FLEET"]
    active = metrics.get(FLEET_PAIRS_ACTIVE)
    active_now = (
        sum(child.value for _, child in active.samples()) if active is not None else 0
    )
    lines.append(
        f"pairs: {int(finished.total())} finished, {int(active_now)} active"
    )
    occupancy = metrics.get(FLEET_LANE_OCCUPANCY)
    if occupancy is not None:
        cells = [
            f"{labels.get('lane', '?')}={int(child.value)}"
            for labels, child in occupancy.samples()
        ]
        if cells:
            lines.append(f"lane occupancy (peak pairs): {' '.join(cells)}")
    crashes = metrics.get(CRASHES)
    sent = metrics.get(INTENTS_SENT)
    if crashes is not None or sent is not None:
        crash_by = (
            {labels.get("cohort", "?"): child.value for labels, child in crashes.samples()}
            if crashes is not None
            else {}
        )
        sent_by = (
            {labels.get("cohort", "?"): child.value for labels, child in sent.samples()}
            if sent is not None
            else {}
        )
        lines.append(f"{'COHORT':<12} {'INTENTS':>10} {'CRASHES':>9}")
        for cohort in sorted(set(crash_by) | set(sent_by)):
            lines.append(
                f"{cohort:<12} {int(sent_by.get(cohort, 0)):>10} "
                f"{int(crash_by.get(cohort, 0)):>9}"
            )
    return lines


def render_summary(telemetry: "Telemetry") -> str:
    """The ``dumpsys telemetry`` table: every series, then tracer health."""
    registry = telemetry.metrics
    lines = ["TELEMETRY (dumpsys-style snapshot)", ""]
    lines.append(f"{'METRIC':<44} {'KIND':<10} {'SERIES':>6} {'VALUE':>14}")
    for metric in registry.collect():
        if isinstance(metric, Histogram):
            series = sum(1 for _ in metric.samples())
            value = f"n={metric.total_count()}"
        elif isinstance(metric, Counter):
            series = sum(1 for _ in metric.samples())
            value = _format_value(metric.total())
        else:
            samples = list(metric.samples())
            series = len(samples)
            value = _format_value(sum(child.value for _, child in samples))
        lines.append(f"{metric.name:<44} {metric.kind:<10} {series:>6} {value:>14}")
    if len(registry) == 0:
        lines.append("(no series recorded yet)")
    tracer = telemetry.tracer
    lines.append("")
    lines.append(
        f"spans: {len(tracer)} retained, {tracer.dropped} dropped,"
        f" {tracer.open_depth} open"
    )
    heartbeat = telemetry.progress.last_snapshot
    if heartbeat is not None:
        lines.append(heartbeat.render())
    lines.extend(_fleet_section(registry))
    prof = telemetry.profiler
    if prof.enabled:
        lines.append("")
        lines.append("SELF-PROFILE (wall self-time per phase path)")
        rows = prof.paths()
        if not rows:
            lines.append("(no phases recorded)")
        else:
            total = prof.total_seconds() or 1.0
            lines.append(f"{'PHASE':<44} {'SELF':>10} {'%':>6} {'ENTRIES':>9}")
            for path, self_s, entries in rows:
                name = ";".join(path)
                lines.append(
                    f"{name:<44} {self_s:>9.3f}s {100.0 * self_s / total:>5.1f}% {entries:>9}"
                )
    return "\n".join(lines)


def render_collapsed(profiler: "PhaseProfiler") -> str:
    """The profiler as collapsed stacks: ``a;b <self-microseconds>`` lines.

    Microsecond integers rather than float seconds because flamegraph.pl
    sums sample counts -- integral weights collapse cleanly.
    """
    return "\n".join(
        f"{';'.join(path)} {int(round(self_s * 1e6))}"
        for path, self_s, _ in profiler.paths()
    )


def export_snapshot(directory: str, telemetry: "Telemetry") -> Dict[str, str]:
    """Write metrics.prom, trace.jsonl and summary.txt under *directory*.

    With ``--profile`` armed, a flamegraph-ready ``profile.collapsed``
    rides along.  Returns ``{artifact name: path written}``.
    """
    os.makedirs(directory, exist_ok=True)
    artifacts = {
        "metrics.prom": render_prometheus(telemetry.metrics),
        "trace.jsonl": spans_to_jsonl(telemetry.tracer),
        "summary.txt": render_summary(telemetry),
    }
    if telemetry.profiler.enabled:
        artifacts["profile.collapsed"] = render_collapsed(telemetry.profiler)
    written: Dict[str, str] = {}
    for name, content in artifacts.items():
        path = os.path.join(directory, name)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(content if content.endswith("\n") or not content else content + "\n")
        written[name] = path
    return written
