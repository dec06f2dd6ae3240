"""A study's trace holds all of it: one span per component, none dropped.

The tracer records components, not injections, so every span a quick wear
study opens fits the ring.  Each ``component`` span carries the intents it
sent, which add up to the study's total, and the trace merged from two
workers holds the same spans as the in-process run.
"""

from collections import Counter

import pytest

from repro import telemetry
from repro.experiments.config import QUICK
from repro.experiments.wear_experiment import run_wear_study

#: A reboot (pulsetrack, campaign A), ANR hangs (cardiowatch) and a
#: well-behaved app, over all four campaigns.
PACKAGES = ["com.pulsetrack.wear", "com.cardiowatch.wear", "com.runmate.wear"]


@pytest.fixture(scope="module")
def runs():
    """The study under telemetry at 1 and 2 workers: (study, spans, dropped)."""
    traced = {}
    for workers in (1, 2):
        with telemetry.session() as t:
            study = run_wear_study(QUICK, packages=PACKAGES, workers=workers)
            traced[workers] = (study, t.tracer.spans(), t.tracer.dropped)
    return traced


def _view(spans):
    """The id-less multiset of (name, attributes, virtual start, virtual end)."""
    return Counter(
        (
            span.name,
            tuple(sorted(span.attributes.items())),
            span.start_virtual_ms,
            span.end_virtual_ms,
        )
        for span in spans
    )


@pytest.mark.parametrize("workers", [1, 2])
def test_the_study_drops_no_span(runs, workers):
    _, spans, dropped = runs[workers]
    assert dropped == 0
    assert spans


def test_one_span_per_component_and_none_per_injection(runs):
    study, spans, _ = runs[1]
    names = Counter(span.name for span in spans)
    assert set(names) == {"study", "campaign", "package", "component"}
    assert names["study"] == len(PACKAGES)
    components = sum(len(app.components) for app in study.summary.apps)
    assert names["component"] == components


def test_component_sent_adds_up_to_the_study_total(runs):
    study, spans, _ = runs[1]
    sent = [span.attributes["sent"] for span in spans if span.name == "component"]
    assert sum(sent) == study.intents_sent > 0


def test_two_workers_trace_the_same_spans(runs):
    assert _view(runs[2][1]) == _view(runs[1][1])
