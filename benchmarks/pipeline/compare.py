"""Compare two pipeline-benchmark result files, metric by metric.

Usage (from the repository root)::

    python3 benchmarks/pipeline/compare.py PARENT.json CHANGE.json

Each file is a ``run.py --json`` document, or a file holding several of
them under ``"sets"`` (like ``baseline.json``), whose samples are pooled.
Every (end-to-end metric, workload) pair present in both is judged
against its bound from ``BENCHMARK.json``: improved, unchanged, regressed,
or unresolved (run-to-run spread wider than the bound).  A regression
names the layer whose traced self time grew most.  Exits 1 when any pair
regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

import summary
import tracing

ROOT = Path(__file__).resolve().parents[2]


def load(path: str) -> Dict[str, Dict[str, Any]]:
    """Per workload: pooled end-to-end samples and median per-layer values."""
    with open(path, encoding="utf-8") as fh:
        document = json.load(fh)
    sets: List[Dict[str, Any]] = document.get("sets", [document])
    pooled: Dict[str, Dict[str, Any]] = {}
    for one in sets:
        for name, result in one["workloads"].items():
            entry = pooled.setdefault(name, {"samples": {}, "layers": {}})
            for metric, row in result.get("end_to_end", {}).items():
                entry["samples"].setdefault(metric, []).extend(row["samples"])
            for metric, row in result.get("per_layer", {}).items():
                entry["layers"].setdefault(metric, []).append(row["value"])
    for entry in pooled.values():
        entry["layers"] = {metric: statistics.median(values) for metric, values in entry["layers"].items()}
    return pooled


def grown_layer(parent: Dict[str, float], change: Dict[str, float]) -> Optional[str]:
    """The layer self time that grew most from *parent* to *change*."""
    metrics = [f"{layer}.self_s" for layer in (*tracing.LAYERS, "unattributed")]
    deltas = {metric: change[metric] - parent[metric] for metric in metrics if metric in parent and metric in change}
    if not deltas:
        return None
    metric = max(deltas, key=deltas.get)
    return f"{metric} {deltas[metric]:+.4f} s"


def compare(parent: Dict[str, Any], change: Dict[str, Any], spec: Dict[str, Any]) -> List[Dict[str, Any]]:
    rows = []
    for name in sorted(set(parent) & set(change)):
        for metric in spec["end_to_end"]:
            a = parent[name]["samples"].get(metric["name"])
            b = change[name]["samples"].get(metric["name"])
            if not a or not b:
                continue
            row = {
                "workload": name,
                "metric": metric["name"],
                "parent": statistics.median(a),
                "change": statistics.median(b),
                "bound": metric["bound"],
                "verdict": summary.verdict(a, b, metric["bound"], metric["better"]),
            }
            if row["verdict"] == summary.REGRESSED:
                row["layer"] = grown_layer(parent[name]["layers"], change[name]["layers"]) or "no traced rep"
            rows.append(row)
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    rows = compare(load(argv[0]), load(argv[1]), spec)
    for row in rows:
        line = (
            f"{row['workload']:<18} {row['metric']:<20} {row['parent']:>12.4f} -> {row['change']:>12.4f} "
            f"{(row['change'] - row['parent']) / row['parent']:+7.1%}  bound {row['bound']:.0%}  {row['verdict']}"
        )
        if "layer" in row:
            line += f"  [{row['layer']}]"
        print(line)
    return 1 if any(row["verdict"] == summary.REGRESSED for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
