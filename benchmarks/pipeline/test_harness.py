"""Tests of the pipeline benchmark's own machinery.

Run with ``PYTHONPATH=src python -m pytest benchmarks/pipeline -q``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import statistics
import subprocess
import sys
import types
from pathlib import Path

import pytest

import compare
import run
import summary
import tracing
import workloads
from tracing import ITEMS, RESUME, Target, Tracer

HERE = Path(__file__).resolve().parent


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def fake(monkeypatch):
    """A throwaway module whose functions spend fake-clock time."""
    clock = FakeClock()
    module = types.ModuleType("pipeline_fake")
    module.closed = []

    def inner():
        clock.advance(2.0)
        return "inner"

    def outer():
        clock.advance(1.0)
        module.inner()
        clock.advance(3.0)

    def produce(n):
        for i in range(n):
            clock.advance(1.0)
            yield i

    def items(n):
        try:
            yield from range(n)
        finally:
            module.closed.append(n)

    def task():
        clock.advance(1.0)
        sent = yield "first"
        clock.advance(sent)
        return "done"

    for fn in (inner, outer, produce, items, task):
        setattr(module, fn.__name__, fn)
    monkeypatch.setitem(sys.modules, "pipeline_fake", module)
    return module, clock


def test_self_time_of_nested_calls(fake):
    module, clock = fake
    tracer = Tracer(clock=clock)
    targets = (Target("parse", "pipeline_fake:inner"), Target("fold", "pipeline_fake:outer"))
    with tracer.installed(targets), tracer.root():
        clock.advance(0.5)
        module.outer()
    metrics = tracer.metrics()
    assert metrics["parse.self_s"] == 2.0
    assert metrics["fold.self_s"] == 4.0
    assert metrics["unattributed.self_s"] == 0.5
    assert metrics["trace.wall_s"] == 6.5
    layer_total = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert layer_total + metrics["unattributed.self_s"] == metrics["trace.wall_s"]


def test_generator_wrapper_times_each_next_only(fake):
    module, clock = fake
    tracer = Tracer(clock=clock)
    targets = (
        Target("generate", "pipeline_fake:produce", kind=RESUME, count_metric="generate.yielded"),
        Target("generate", "pipeline_fake:items", kind=ITEMS, count_metric="generate.built"),
    )
    with tracer.installed(targets), tracer.root():
        for _ in module.produce(3):
            clock.advance(10.0)  # the consumer's time is not generation time
        for index in module.items(5):
            if index == 1:
                break
    metrics = tracer.metrics()
    assert metrics["generate.self_s"] == 3.0
    assert metrics["generate.yielded"] == 3
    assert metrics["generate.built"] == 2
    assert metrics["generate.yield_ratio"] == 1.5
    assert metrics["unattributed.self_s"] == 30.0
    assert module.closed == [5]  # breaking out closed the wrapped generator


def test_generator_wrapper_passes_send_and_return_value(fake):
    module, clock = fake
    tracer = Tracer(clock=clock)
    with tracer.installed((Target("fuzz", "pipeline_fake:task", kind=RESUME),)), tracer.root():
        def delegate():
            return (yield from module.task())

        gen = delegate()
        assert next(gen) == "first"
        with pytest.raises(StopIteration) as stop:
            gen.send(4.0)
    assert stop.value.value == "done"
    assert tracer.metrics()["fuzz.self_s"] == 5.0


def test_describe_and_bounds():
    row = summary.describe([3.0, 1.0, 2.0, 10.0])
    assert (row["value"], row["min"], row["max"], row["n"]) == (2.5, 1.0, 10.0, 4)
    q1, _, q3 = statistics.quantiles([3.0, 1.0, 2.0, 10.0], n=4)
    assert row["spread"] == pytest.approx((q3 - q1) / 2.5)
    assert summary.spread([5.0]) == 0.0

    steady = [1.00, 1.01, 0.99, 1.00, 1.01]
    assert summary.verdict(steady, [x * 1.05 for x in steady], 0.10, "lower") == summary.UNCHANGED
    assert summary.verdict(steady, [x * 1.20 for x in steady], 0.10, "lower") == summary.REGRESSED
    assert summary.verdict(steady, [x * 0.80 for x in steady], 0.10, "lower") == summary.IMPROVED
    assert summary.verdict(steady, [x * 0.80 for x in steady], 0.10, "higher") == summary.REGRESSED
    noisy = [1.0, 1.5, 0.7, 1.3, 0.9]
    assert summary.verdict(steady, noisy, 0.10, "lower") == summary.UNRESOLVED
    assert summary.verdict(noisy, [0.5, 0.6, 0.55], 0.10, "lower") == summary.IMPROVED


def test_compare_names_the_layer_of_a_regression():
    spec = run.load_spec()
    steady = [2.0, 2.02, 1.98, 2.01, 1.99]
    parent = {"w": {"samples": {"wall_s": steady}, "layers": {"parse.self_s": 0.8, "dispatch.self_s": 0.4}}}
    change = {"w": {"samples": {"wall_s": [x * 1.5 for x in steady]},
                    "layers": {"parse.self_s": 1.7, "dispatch.self_s": 0.5}}}
    (row,) = compare.compare(parent, change, spec)
    assert row["verdict"] == summary.REGRESSED
    assert row["layer"].startswith("parse.self_s +0.9")
    (row,) = compare.compare(parent, parent, spec)
    assert row["verdict"] == summary.UNCHANGED and "layer" not in row


def test_wrappers_are_removed_after_the_traced_rep():
    import repro.qgj.campaigns as campaigns
    import repro.qgj.fuzzer as fuzzer
    from repro.android.log import Logcat

    resolved = {target.path: tracing._resolve(target.path)[2] for target in tracing.TARGETS}
    aliases = (fuzzer.generate, campaigns.generate)
    tracer = Tracer()
    with tracer.installed():
        assert not tracer.absent
        assert campaigns.generate is not aliases[1]
        assert fuzzer.generate is campaigns.generate  # every alias is patched
        assert "write" in vars(Logcat)
    for path, original in resolved.items():
        assert tracing._resolve(path)[2] is original, path
    assert (fuzzer.generate, campaigns.generate) == aliases


def test_missing_target_is_reported_as_absent(fake):
    module, clock = fake
    tracer = Tracer(clock=clock)
    targets = (
        Target("parse", "pipeline_fake:inner"),
        Target("parse", "pipeline_fake:attach_handled_frames"),
        Target("parse", "pipeline_fake_gone:parse_events"),
    )
    with tracer.installed(targets), tracer.root():
        module.inner()
    assert tracer.absent == ["pipeline_fake:attach_handled_frames", "pipeline_fake_gone:parse_events"]
    assert tracer.metrics()["parse.self_s"] == 2.0


def test_benchmark_json_matches_the_harness():
    spec = run.load_spec()
    assert [m["name"] for m in spec["per_layer"]] == [*tracing.LAYER_METRICS, "trace.overhead_ratio"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert set(run.load_references()) <= set(workloads.WORKLOADS)


def test_service_packages_are_the_smallest_third_party_ones():
    from repro.experiments.config import QUICK
    from repro.qgj.campaigns import Campaign

    corpus = workloads.build_wear_corpus(seed=workloads.CORPUS_SEED)
    third_party = [app.package.package for app in corpus.apps if app.package.origin.value == "Third Party"]
    volume = {p: workloads.planned_intents(corpus, [p], QUICK.fuzz, tuple(Campaign)) for p in third_party}
    chosen = workloads.WORKLOADS["service_closed"].packages(smoke=False)
    assert max(volume[p] for p in chosen) <= min(volume[p] for p in third_party if p not in chosen)


def _rep(ops=4, digest="a", failures=(), traced=False):
    return {
        "traced": traced, "ops": ops, "failures": list(failures), "sim": {"report_sha256": digest},
        "wall_s": 2.0, "intents": 100, "pairs": 2, "study_latencies_s": [2.0], "setup_s": 1.0,
        "peak_rss_mb": 100.0,
    }


def test_failed_check_fails_every_op_of_its_rep():
    spec = run.load_spec()
    result = run.aggregate("w", [_rep(), _rep(failures=["boom"]), _rep()], spec, None)
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 12, 4)
    result = run.aggregate("w", [_rep(), _rep(digest="b")], spec, None)
    assert not result["correct"] and result["failed"] == 8
    assert any("differs between reps" in failure for failure in result["failures"])
    result = run.aggregate("w", [_rep(), {"workload": "w", "traced": False, "error": "exit 1"}], spec, None)
    assert (result["correct"], result["failed"]) == (False, 4)


def _corruptions(name, run_):
    """(description, apply) pairs, each breaking exactly one check."""
    art = run_.artifacts
    if name.startswith("wear"):
        result = art["result"]

        def inflate():
            component = result.summary.apps[0].components[0]
            component.sent += 10**7

        def fold_less():
            result.collector.segments_folded -= 1

        return [
            ("segments folded", fold_less),
            ("analytic volume", inflate),
            ("is empty", lambda: art["sections"].__setitem__("fig2", "")),
        ]
    if name == "fleet_screen":
        summaries = art["result"].summaries
        return [
            ("pairs", lambda: summaries.pop()),
            ("not distinct", lambda: summaries.__setitem__(1, summaries[0])),
            ("analytic volume", lambda: summaries.__setitem__(0, dataclasses.replace(summaries[0], sent=10**7))),
            ("is empty", lambda: art.__setitem__("report", "")),
        ]
    study = next(iter(art["studies"].values()))
    return [
        ("exited", lambda: art["codes"].append(2)),
        ("not done", lambda: study.__setitem__("state", "poisoned")),
        ("WAL complete record", lambda: study.__setitem__("report", study["report"] + "tampered")),
        ("analytic volume", lambda: study.__setitem__("intents", 10**7)),
    ]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_each_check_fires_on_a_corrupted_result(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    index = count = 0
    while index == 0 or index < count:
        fresh = workload.execute(0, True, tracing.Stopwatch(), str(tmp_path / str(index)))
        assert workload.check(fresh) == []
        corruptions = _corruptions(name, fresh)
        count = len(corruptions)
        description, corrupt = corruptions[index]
        corrupt()
        failures = workload.check(fresh)
        assert any(description in failure for failure in failures), (description, failures)
        index += 1


def test_smoke_run_end_to_end(tmp_path):
    out = tmp_path / "smoke.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seconds", "0", "--json", str(out),
         "--trace-dir", str(tmp_path / "spans")],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    spec = run.load_spec()
    expected = {f"{w}.{m['name']}" for w in workloads.WORKLOADS for m in spec["per_layer"]}
    assert set(last["metrics"]) == expected

    document = json.loads(out.read_text())
    for name, result in document["workloads"].items():
        assert set(result["end_to_end"]) == {m["name"] for m in spec["end_to_end"]}
        digests = {(rep["traced"], rep["sim"]["report_sha256"]) for rep in result["reps"]}
        assert {traced for traced, _ in digests} == {False, True}
        assert len({digest for _, digest in digests}) == 1, "tracing changed the simulated output"
        layers = {metric: row["value"] for metric, row in result["per_layer"].items()}
        total = sum(layers[f"{layer}.self_s"] for layer in tracing.LAYERS) + layers["unattributed.self_s"]
        assert math.isclose(total, layers["trace.wall_s"], rel_tol=1e-9)
        spans = (tmp_path / "spans" / f"{name}.spans.jsonl").read_text().splitlines()
        assert json.loads(spans[0])["name"] == "rep"
