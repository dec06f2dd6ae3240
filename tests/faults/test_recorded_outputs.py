"""Faulted study outputs pinned to recorded digests.

The chaos smokes compare two runs of the same code, so a plane change that
moves one fault passes them.  These digests of ``StudyResult.render()`` were
recorded on the eager plane (every stream built and walked on every query,
the backoff schedule built before every call) and are the same on Python
3.10, 3.11 and 3.12.  The slice is small: two quick-scale packages, one of
them the hang app whose ANR windows stretch its segments.
"""

import hashlib

import pytest

from repro import faults, telemetry
from repro.experiments.config import QUICK
from repro.experiments.wear_experiment import run_wear_study
from repro.faults import CompatMatrix, FaultKind, FaultPlan, compose_plan
from repro.telemetry.exporters import render_prometheus
from repro.telemetry.metrics import (
    COMPAT_MISMATCHES,
    FAULTS_INJECTED,
    SERVICE_FAULTS_INJECTED,
)

SLICE = ("com.cardiowatch.wear", "com.chatterbox.wear")

#: Every kind at one event per virtual minute (restarts every two), under a
#: skewed pair so compat events manifest.  Adb drops stay at one per quarter
#: hour: any denser and they pile up past the log pull's retry budget.
DENSE = FaultPlan(
    seed=3,
    adb_drop_every_ms=900_000.0,
    binder_every_ms=60_000.0,
    lmkd_every_ms=60_000.0,
    logcat_truncate_every_ms=60_000.0,
    service_outage_every_ms=60_000.0,
    service_corrupt_every_ms=60_000.0,
    system_restart_every_ms=120_000.0,
    compat_mismatch_every_ms=60_000.0,
    compat=CompatMatrix.from_skew(3),
)

RECORDED = {
    "chaos7": (
        FaultPlan.chaos(seed=7),
        "266e7e2dcbf3171defc22283f9ea2b1856782cfe6a97d454c0ee1be9c2891b8e",
    ),
    "service5-skew3": (
        compose_plan(service_fault_seed=5, compat_skew=3),
        "8d5e4b70ef3219cf1143150520bf6b54f9663c6bbabd4490f47ad018d9450717",
    ),
    "dense": (
        DENSE,
        "8c0d4b5ec631eab60d201fcae7e3eea6b808088240f187afa3d3d7568a499cbe",
    ),
}

#: The DENSE run's telemetry: its full ``render_prometheus`` text, and the
#: ``repr`` of its fault spans as (name, sorted attributes, virtual start,
#: virtual end).  The metrics digest and the digest of the newest 513 fault
#: spans were recorded while the plane still had one fault recorder per
#: counter family, before they were folded into one, and while every
#: injection was a span, so the ring kept only those 513.  The digest of all
#: 704 was recorded once the trace held one span per component.
DENSE_METRICS_DIGEST = (
    "c5e05a53d64685fda4abe553d65c700a824020647a5d2cbfa5b0082bae340ce9"
)
DENSE_NEWEST_FAULT_SPANS_DIGEST = (
    "7867f81998424a4795658a23a11036b9301b3e52dab8ec23b193985386f15131"
)
DENSE_FAULT_SPANS_DIGEST = (
    "7e5e4f5bbbd23c15f4ad27ee0a7e9f8b4cd9aa3650aa0cc60eab22dcf5fd2f6c"
)


@pytest.fixture(autouse=True)
def _no_leaked_plane():
    yield
    faults.uninstall()


def _digest(plan: FaultPlan) -> str:
    with faults.session(plan):
        result = run_wear_study(QUICK, packages=list(SLICE))
    return hashlib.sha256(result.render().encode()).hexdigest()


@pytest.mark.parametrize("name", ["chaos7", "service5-skew3"])
def test_render_matches_recorded_digest(name):
    plan, recorded = RECORDED[name]
    assert _digest(plan) == recorded


@pytest.fixture(scope="module")
def dense_run():
    """The DENSE study once, under telemetry: its render digest and handle."""
    plan, _ = RECORDED["dense"]
    with telemetry.session() as t:
        digest = _digest(plan)
    return digest, t


def test_dense_plan_fires_every_kind_and_matches_recorded_digest(dense_run):
    digest, t = dense_run
    assert digest == RECORDED["dense"][1]
    transport = t.metrics.get(FAULTS_INJECTED)
    service = t.metrics.get(SERVICE_FAULTS_INJECTED)
    fired = {
        kind: (
            t.metrics.get(COMPAT_MISMATCHES).total()
            if kind is FaultKind.COMPAT_MISMATCH
            else (transport.total_where(kind=kind.value) if transport else 0)
            + (service.total_where(kind=kind.value) if service else 0)
        )
        for kind in FaultKind
    }
    assert all(count > 0 for count in fired.values()), fired


def test_dense_plan_metrics_export_matches_recorded_digest(dense_run):
    # Every series, fault counters included, byte for byte.
    _, t = dense_run
    text = render_prometheus(t.metrics)
    assert hashlib.sha256(text.encode()).hexdigest() == DENSE_METRICS_DIGEST


def test_dense_plan_fault_spans_match_recorded_digest(dense_run):
    # All 704 fault spans: kind and param, in order, on the virtual clock.
    _, t = dense_run
    assert t.tracer.dropped == 0
    spans = [
        (
            span.name,
            tuple(sorted(span.attributes.items())),
            span.start_virtual_ms,
            span.end_virtual_ms,
        )
        for span in t.tracer.spans()
        if span.name == "fault"
    ]
    assert len(spans) == 704
    assert hashlib.sha256(repr(spans).encode()).hexdigest() == DENSE_FAULT_SPANS_DIGEST
    newest = spans[-513:]
    assert hashlib.sha256(repr(newest).encode()).hexdigest() == DENSE_NEWEST_FAULT_SPANS_DIGEST
