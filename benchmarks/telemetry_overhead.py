"""Standalone telemetry-overhead measurement: injection throughput off vs on.

Run as a script (``python benchmarks/telemetry_overhead.py``) it prints the
``BENCH_telemetry.json`` payload to stdout.  It is deliberately a plain
script rather than pytest code: the overhead of the observability plane is
a cache-sensitive number, and measuring it inside a long-lived test
process -- dragging the harness's multi-hundred-MB heap through the TLB --
inflates the ratio well past what a real campaign process (which looks
exactly like this script) ever pays.  ``benchmarks/test_perf_pipeline.py``
runs this file in a fresh subprocess for the same reason.

Methodology, three defences against a noisy host (timed windows are only
tens of milliseconds):

1. The overhead ratio is computed from *CPU time* (``time.process_time``).
   On a shared machine wall-clock windows are randomly inflated by CPU
   steal, which would be misread as instrumentation cost; CPU time charges
   only what the process actually burned.  Wall-clock rates are still
   reported as the throughput headline.
2. The variants are interleaved round-robin and each instrumented variant
   is paired with its own immediately-preceding baseline window; the
   summary is the median of those paired ratios over all rotations.
   Adjacent windows share a CPU-frequency regime, so the pairs stay
   stable even while absolute rates swing.
3. Every instrumented variant runs one warm window inside its fresh
   session before the timed one, so first-touch costs (handle binds,
   metric families) are not billed to the steady state a paper-scale run
   actually lives in -- and each variant times *two* windows per rotation,
   keeping the best.  Noise (a GC pause, an interrupt, a frequency dip)
   only ever adds time, so the fastest window is the cleanest estimate of
   the code's true cost -- the same reason ``timeit`` reports the min.
"""

import json
import statistics
import sys
import time

from repro import telemetry
from repro.apps.catalog import build_wear_corpus
from repro.qgj.campaigns import Campaign
from repro.qgj.fuzzer import FuzzConfig, FuzzerLibrary
from repro.wear.device import WearDevice

ROUNDS = 20
ROTATIONS = 9
INTENTS_PER_ROUND = 141


def measure(rounds: int = ROUNDS, rotations: int = ROTATIONS) -> dict:
    corpus = build_wear_corpus(seed=2018)
    watch = WearDevice("bench-watch")
    corpus.install(watch)
    fuzzer = FuzzerLibrary(watch)
    info = watch.packages.get_package("com.runmate.wear").activities()[1]
    config = FuzzConfig(max_intents_per_component=INTENTS_PER_ROUND)

    def window():
        wall = time.perf_counter()
        cpu = time.process_time()
        sent = 0
        for _ in range(rounds):
            sent += fuzzer.fuzz_component(info, Campaign.B, config).sent
        cpu = time.process_time() - cpu
        wall = time.perf_counter() - wall
        return sent / wall, sent / cpu

    def best_of_two():
        wall_a, cpu_a = window()
        wall_b, cpu_b = window()
        return max(wall_a, wall_b), max(cpu_a, cpu_b)

    def run_off():
        return best_of_two()

    def run_on():
        with telemetry.session():
            window()
            return best_of_two()

    def run_profiled():
        with telemetry.session(profile=True):
            window()
            return best_of_two()

    variants = {
        "on": run_on,
        "profiled": run_profiled,
    }
    window()
    window()  # warm caches before timing any variant
    best = {name: 0.0 for name in ("off", *variants)}
    ratios = {name: [] for name in variants}
    for _ in range(rotations):
        for name, run in variants.items():
            off_wall, off_cpu = run_off()
            best["off"] = max(best["off"], off_wall)
            wall_rate, cpu_rate = run()
            best[name] = max(best[name], wall_rate)
            ratios[name].append(off_cpu / cpu_rate)

    return {
        "bench": "telemetry_overhead",
        "intents_per_round": INTENTS_PER_ROUND,
        "rounds": rounds,
        "rotations": rotations,
        "intents_per_sec_telemetry_off": round(best["off"], 1),
        "intents_per_sec_telemetry_on": round(best["on"], 1),
        "intents_per_sec_profiled": round(best["profiled"], 1),
        "overhead_ratio": round(statistics.median(ratios["on"]), 3),
        "overhead_ratio_profiled": round(statistics.median(ratios["profiled"]), 3),
    }


if __name__ == "__main__":
    json.dump(measure(), sys.stdout, indent=2)
    sys.stdout.write("\n")
