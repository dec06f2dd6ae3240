"""Outside-in pipeline benchmark: whole studies timed end to end, split by layer.

Usage (from the repository root)::

    python3 benchmarks/pipeline/run.py [--workload NAME ...] [--seed N]
        [--seconds S] [--trace 0|1] [--trace-dir DIR] [--json PATH] [--smoke]

Every repetition is a fresh ``rep.py`` subprocess (``PYTHONHASHSEED=0``,
one process, no worker pool).  Repetitions are interleaved across the
selected workloads -- rep 1 of each, then rep 2, ... -- until ``--seconds``
is spent, after at least three untraced rounds.  With ``--trace 1`` the
second round is the traced one: it wraps each layer's public calls and
yields the per-layer metrics.

The metric names, units, directions and bounds come from ``BENCHMARK.json``
at the repository root.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1`` (prefixed ``<workload>.`` when several
workloads run).  The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

import summary

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORK = ROOT / ".bench_build" / "pipeline"

MIN_ROUNDS = 3
#: A repetition that outlives this is killed and counted as failed.
REP_TIMEOUT_S = 120.0
#: No new round starts after this much of the run has passed.
RUN_LIMIT_S = 150.0


def load_spec() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def load_references() -> Dict[str, Dict[str, Any]]:
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        return json.load(fh)


def spawn_rep(name: str, seed: int, traced: bool, smoke: bool, spans: Optional[Path]) -> Dict[str, Any]:
    """Run one repetition in a fresh interpreter; return its record."""
    workdir = WORK / f"rep-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(ROOT / "src"), TMPDIR=str(workdir))
    command = [sys.executable, str(HERE / "rep.py"), name, "--seed", str(seed), "--workdir", str(workdir)]
    command += ["--smoke"] * smoke + ["--trace"] * traced
    if spans is not None:
        command += ["--spans", str(spans)]
    try:
        command += ["--spawned", repr(time.monotonic())]
        proc = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=REP_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return {"workload": name, "traced": traced, "error": f"timed out after {REP_TIMEOUT_S:.0f} s"}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in reversed(proc.stdout.splitlines()):
        if line.startswith("@@result "):
            return json.loads(line[len("@@result "):])
    tail = (proc.stderr or proc.stdout).strip().splitlines()[-5:]
    return {"workload": name, "traced": traced, "error": f"exit {proc.returncode}: " + " | ".join(tail)}


def measure(names: List[str], args) -> Dict[str, List[Dict[str, Any]]]:
    """Interleaved repetitions of every workload until the time budget is spent."""
    reps: Dict[str, List[Dict[str, Any]]] = {name: [] for name in names}
    min_rounds = 1 if args.smoke else MIN_ROUNDS
    if args.trace:
        min_rounds += 1
    start = time.monotonic()
    round_s: List[float] = []
    while True:
        traced = bool(args.trace) and len(round_s) == 1
        began = time.monotonic()
        for name in names:
            spans = Path(args.trace_dir) / f"{name}.spans.jsonl" if traced and args.trace_dir else None
            reps[name].append(spawn_rep(name, args.seed, traced, args.smoke, spans))
        round_s.append(time.monotonic() - began)
        elapsed = time.monotonic() - start
        if len(round_s) >= min_rounds and (
            elapsed + statistics.median(round_s) > args.seconds or elapsed > RUN_LIMIT_S
        ):
            return reps


def aggregate(name: str, reps: List[Dict[str, Any]], spec: Dict[str, Any], reference) -> Dict[str, Any]:
    """One workload's metrics, checks and simulated statistics over its reps."""
    done = [rep for rep in reps if "error" not in rep]
    untraced = [rep for rep in done if not rep["traced"]]
    planned = max((rep["ops"] for rep in done), default=1)
    failures = [
        f"rep {i}: {failure}"
        for i, rep in enumerate(reps)
        for failure in ([rep["error"]] if "error" in rep else rep["failures"])
    ]
    digests = sorted({rep["sim"]["report_sha256"] for rep in done})
    attempted = planned * len(reps)
    if len(digests) > 1:
        failures.append(f"simulated output differs between reps: {digests}")
        failed = attempted
    else:
        failed = planned * sum(1 for rep in reps if "error" in rep or rep["failures"])
    if not untraced:
        failures.append("no untraced repetition completed")
        failed = attempted
    samples = {
        "wall_s": [rep["wall_s"] for rep in untraced],
        "intents_per_s": [rep["intents"] / rep["wall_s"] for rep in untraced],
        "pairs_per_s": [rep["pairs"] / rep["wall_s"] for rep in untraced],
        "study_latency_p50_s": [statistics.median(rep["study_latencies_s"]) for rep in untraced],
        "setup_s": [rep["setup_s"] for rep in done],
        "peak_rss_mb": [rep["peak_rss_mb"] for rep in untraced],
    }
    result: Dict[str, Any] = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "end_to_end": {},
        "reps": reps,
    }
    if untraced:
        result["end_to_end"] = {
            metric["name"]: {"unit": metric["unit"], **summary.describe(samples[metric["name"]]),
                             "samples": samples[metric["name"]]}
            for metric in spec["end_to_end"]
        }
    traced = [rep for rep in done if rep["traced"]]
    if traced and untraced:
        layers = dict(traced[0]["layers"])
        layers["trace.overhead_ratio"] = layers["trace.wall_s"] / result["end_to_end"]["wall_s"]["value"]
        result["per_layer"] = {
            metric["name"]: {"value": layers[metric["name"]], "unit": metric["unit"]}
            for metric in spec["per_layer"]
        }
        result["layers_absent"] = traced[0]["layers_absent"]
    if done:
        result["sim"] = done[0]["sim"]
        result["sim_matches_reference"] = None if reference is None else result["sim"] == reference
    return result


def print_workload(name: str, result: Dict[str, Any]) -> None:
    reps = result["reps"]
    traced = sum(1 for rep in reps if rep.get("traced"))
    state = "correct" if result["correct"] else "INCORRECT"
    print(f"== {name}: {len(reps)} reps ({traced} traced), {result['attempted']} ops, "
          f"{result['failed']} failed, {state}")
    for failure in result["failures"]:
        print(f"  check failed: {failure}")
    for metric, row in result["end_to_end"].items():
        print(f"  {metric:<22} {row['value']:>12.4f} {row['unit']:<10} "
              f"min {row['min']:.4f}  max {row['max']:.4f}  n={row['n']}  spread {row['spread']:.1%}")
    if "sim" in result:
        sim = result["sim"]
        print(f"  sim: intents={sim['intents']} crashes={sim['crashes']} reboots={sim['reboots']} "
              f"virtual_hours={sim['virtual_hours']:.3f} sha256={sim['report_sha256'][:16]} "
              f"sim_matches_reference: {json.dumps(result['sim_matches_reference'])}")
    if "per_layer" in result:
        wall = result["per_layer"]["trace.wall_s"]["value"]
        print(f"  traced rep, wall {wall:.3f} s; layers absent: {result['layers_absent'] or 'none'}")
        for metric, row in result["per_layer"].items():
            share = f"{row['value'] / wall:6.1%}" if metric.endswith(".self_s") and wall else ""
            print(f"    {metric:<28} {row['value']:>14.4f} {row['unit']:<6} {share}")


def main(argv=None) -> int:
    spec = load_spec()
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", "--workloads", dest="workloads", nargs="+", action="extend",
                        choices=names, help="workloads to run (default: all)")
    parser.add_argument("--seed", type=int, default=0, help="fuzz seed of the generated inputs")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"], help="time budget of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1, help="add one traced round")
    parser.add_argument("--trace-dir", help="write each traced rep's spans here as JSONL")
    parser.add_argument("--json", help="write the full result document here")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, one untraced round")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"run.py: the program's sources are missing under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.trace_dir:
        os.makedirs(args.trace_dir, exist_ok=True)
    selected = args.workloads or names
    selected = [name for name in names if name in selected]
    references = {} if args.smoke or args.seed != 0 else load_references()

    reps = measure(selected, args)
    results = {name: aggregate(name, reps[name], spec, references.get(name)) for name in selected}
    for name in selected:
        print_workload(name, results[name])
    if args.json:
        document = {
            "host": {"nproc": os.cpu_count(), "python": platform.python_version(), "platform": platform.platform()},
            "seed": args.seed,
            "seconds": args.seconds,
            "smoke": args.smoke,
            "workloads": results,
        }
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(document, fh, indent=1)

    key = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for name in selected:
        prefix = f"{name}." if len(selected) > 1 else ""
        for metric, row in results[name].get(key, {}).items():
            metrics[prefix + metric] = {"value": row["value"], "unit": row["unit"]}
    correct = all(result["correct"] for result in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(result["attempted"] for result in results.values()),
        "failed": sum(result["failed"] for result in results.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
