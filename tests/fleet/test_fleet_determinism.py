"""The fleet kernel's central contract: packing never changes the study.

A pair's summary is a pure function of its spec, lanes are strided slices
of the same plan, and the merge re-orders by pair id -- so the merged
fleet and the rendered population report must be byte-identical at any
``(lanes x workers)`` packing, with or without a chaos fault plan, blind
or guided, and through a kill/resume cycle.
"""

import pytest

from repro import faults, telemetry
from repro.experiments.config import ExperimentConfig
from repro.faults.errors import CampaignKilled
from repro.faults.plan import FaultPlan
from repro.fleet import run_fleet_study
from repro.guided.study import GuidedConfig
from repro.qgj.campaigns import Campaign
from repro.qgj.fuzzer import FuzzConfig

#: Small per-component budget, full campaign structure: every pair still
#: crosses all four campaigns and every cohort appears many times, while a
#: 64-pair fleet stays inside a second of wall clock.
TINY = ExperimentConfig(
    name="tiny",
    fuzz=FuzzConfig(
        strides={Campaign.A: 12, Campaign.B: 1, Campaign.C: 2, Campaign.D: 1},
        max_intents_per_component=2,
    ),
    ui_events=0,
)

#: Chaos plan without adb drops (their retry exhaustion would abort the
#: study identically everywhere but kill the comparison -- same caveat as
#: the farm equivalence tests).
CHAOS = FaultPlan(
    seed=97,
    binder_every_ms=8_000.0,
    lmkd_every_ms=30_000.0,
    logcat_truncate_every_ms=60_000.0,
)


@pytest.fixture(autouse=True)
def _no_leaked_plane():
    yield
    faults.uninstall()


def _fingerprint(result):
    return {
        "summaries": [summary.to_record() for summary in result.summaries],
        "report": result.render_report(),
    }


class TestPackingInvariance:
    def test_64_pair_fleet_identical_across_lanes_and_workers(self):
        reference = _fingerprint(run_fleet_study(64, config=TINY, lanes=1))
        for lanes in (4, 16):
            for workers in (1, 2):
                run = run_fleet_study(64, config=TINY, lanes=lanes, workers=workers)
                assert _fingerprint(run) == reference, (lanes, workers)
        assert reference["summaries"][0]["sent"] > 0

    def test_packing_invariance_under_a_chaos_plan(self):
        with faults.session(CHAOS):
            reference = _fingerprint(run_fleet_study(32, config=TINY, lanes=1))
        with faults.session(CHAOS):
            strided = _fingerprint(run_fleet_study(32, config=TINY, lanes=4))
        with faults.session(CHAOS):
            fanned = _fingerprint(
                run_fleet_study(32, config=TINY, lanes=4, workers=2)
            )
        assert strided == reference
        assert fanned == reference
        # The chaos plan actually bit: lmkd pressure on every cohort.
        clean = _fingerprint(run_fleet_study(32, config=TINY, lanes=1))
        assert clean != reference

    def test_guided_fleet_keeps_the_packing_invariance(self):
        guided = GuidedConfig(scheduler="ucb", block_size=16, budget=48)
        reference = _fingerprint(
            run_fleet_study(12, config=TINY, lanes=1, guided=guided)
        )
        strided = _fingerprint(
            run_fleet_study(12, config=TINY, lanes=4, guided=guided)
        )
        fanned = _fingerprint(
            run_fleet_study(12, config=TINY, lanes=4, workers=2, guided=guided)
        )
        assert strided == reference
        assert fanned == reference
        assert all(s["sent"] == 48 for s in reference["summaries"])

    def test_telemetry_counters_are_packing_invariant(self):
        def counters(lanes, workers, guided):
            with telemetry.session() as t:
                fleet = run_fleet_study(
                    24, config=TINY, lanes=lanes, workers=workers, guided=guided
                )
                return fleet.intents_sent, {
                    (metric.name, tuple(sorted(labels.items()))): child.value
                    for metric in t.metrics.collect()
                    if metric.kind == "counter"
                    for labels, child in metric.samples()
                }

        guided = GuidedConfig(scheduler="ucb", block_size=16, budget=48)
        for mode in (None, guided):
            reference = counters(1, 1, mode)
            sent, series = reference
            assert series  # the fleet actually recorded counters
            if mode is not None:
                # Guided pairs run their blocks through the blocking
                # component driver (inside one scheduler step), so their
                # intents are counted; blind pairs' hookless loop is not.
                injected = sum(
                    value
                    for (name, _), value in series.items()
                    if name == "intents_injected_total"
                )
                assert injected == sent > 0
            assert counters(4, 1, mode) == reference
            assert counters(4, 2, mode) == reference


class TestKillResumeIdentity:
    def test_killed_fleet_resumes_to_the_identical_merged_fleet(self, tmp_path):
        journal = str(tmp_path / "fleet.jsonl")
        clean = run_fleet_study(16, config=TINY, lanes=4)
        reference = _fingerprint(clean)
        with pytest.raises(CampaignKilled):
            run_fleet_study(
                16,
                config=TINY,
                lanes=4,
                journal_path=journal,
                kill_after_injections=clean.intents_sent // 2,
            )
        resumed = run_fleet_study(
            0, config=TINY, journal_path=journal, resume=True
        )
        assert _fingerprint(resumed) == reference
        assert resumed.fleet_size == 16
        assert resumed.lanes == 4

    def test_resume_of_a_guided_fleet_restores_its_guided_config(self, tmp_path):
        journal = str(tmp_path / "fleet.jsonl")
        guided = GuidedConfig(scheduler="ucb", block_size=16, budget=48)
        clean = run_fleet_study(8, config=TINY, lanes=2, guided=guided)
        with pytest.raises(CampaignKilled):
            run_fleet_study(
                8,
                config=TINY,
                lanes=2,
                guided=guided,
                journal_path=journal,
                kill_after_injections=clean.intents_sent // 2,
            )
        # Resume does not re-pass guided: it must come back from the header.
        resumed = run_fleet_study(
            0, config=TINY, journal_path=journal, resume=True
        )
        assert _fingerprint(resumed) == _fingerprint(clean)

    def test_resume_rejects_a_wear_study_journal(self, tmp_path):
        from repro.experiments.wear_experiment import run_wear_study
        from repro.experiments.config import QUICK

        journal = str(tmp_path / "wear.jsonl")
        run_wear_study(
            QUICK,
            packages=["com.runmate.wear"],
            campaigns=(Campaign.B,),
            journal_path=journal,
        )
        with pytest.raises(ValueError, match="not a fleet study"):
            run_fleet_study(0, config=QUICK, journal_path=journal, resume=True)
