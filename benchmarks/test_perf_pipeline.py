"""Performance benchmarks for the pipeline's hot paths.

Unlike the table/figure benches (which regenerate results from cached
studies), these time the moving parts themselves: campaign generation,
intent injection throughput, log parsing, and study folding -- the numbers
that determine how long a paper-scale (~2M intent) run takes.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.logparse import parse_events
from repro.analysis.manifest import StudyCollector
from repro.apps.catalog import build_wear_corpus
from repro.qgj.campaigns import Campaign, generate
from repro.qgj.fuzzer import FuzzConfig, FuzzerLibrary
from repro.wear.device import WearDevice


@pytest.fixture(scope="module")
def installed_watch():
    corpus = build_wear_corpus(seed=2018)
    watch = WearDevice("bench-watch")
    corpus.install(watch)
    return corpus, watch


def test_campaign_a_generation_throughput(benchmark):
    from repro.android.intent import ComponentName

    cmp = ComponentName("com.a", "com.a.Main")

    def run():
        return sum(1 for _ in generate(Campaign.A, component=cmp))

    count = benchmark(run)
    assert count == 1548


def test_injection_throughput(benchmark, installed_watch):
    corpus, watch = installed_watch
    fuzzer = FuzzerLibrary(watch)
    info = watch.packages.get_package("com.runmate.wear").activities()[1]

    def run():
        return fuzzer.fuzz_component(
            info, Campaign.B, FuzzConfig(max_intents_per_component=141)
        )

    result = benchmark(run)
    assert result.sent == 141


def test_telemetry_overhead():
    """Measure injection throughput with telemetry off vs on.

    Delegates to ``benchmarks/telemetry_overhead.py`` (see its docstring
    for the full methodology) and runs it in a *fresh subprocess*: the
    overhead ratio is cache-sensitive, and dragging this test process's
    accumulated heap through the TLB inflates it well past what a real
    campaign process pays.  Writes ``BENCH_telemetry.json`` at the repo
    root so the overhead of the observability plane is tracked alongside
    the figure/table benches.
    """
    script = Path(__file__).resolve().parent / "telemetry_overhead.py"
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        env=env,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)

    out = Path(__file__).resolve().parent.parent / "BENCH_telemetry.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")
    assert payload["intents_per_sec_telemetry_off"] > 0
    assert payload["intents_per_sec_telemetry_on"] > 0


def test_log_parsing_throughput(benchmark, installed_watch):
    corpus, watch = installed_watch
    fuzzer = FuzzerLibrary(watch)
    watch.logcat.clear()
    fuzzer.fuzz_app("com.runmate.wear", Campaign.B, FuzzConfig())
    records = watch.adb.logcat_records()
    assert records

    events = benchmark(parse_events, records)
    assert events


def test_collector_fold_throughput(benchmark, installed_watch):
    corpus, watch = installed_watch
    fuzzer = FuzzerLibrary(watch)
    watch.logcat.clear()
    fuzzer.fuzz_app("com.fitband.wear", Campaign.B, FuzzConfig())
    records = watch.adb.logcat_records()

    def run():
        collector = StudyCollector(corpus.packages())
        collector.fold(records, "com.fitband.wear", "B")
        return collector

    collector = benchmark(run)
    assert collector.segments_folded == 1
