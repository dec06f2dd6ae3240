"""Unit coverage for the fleet kernel's planning, merge, and report layers."""

import dataclasses

import pytest

from repro.analysis.population import (
    nearest_rank,
    population_report,
    render_population,
)
from repro.apps.profiles import (
    DEFAULT_COHORT_SPEC,
    FLEET_COHORTS,
    cohort_cycle,
    parse_cohort_spec,
    profile_for_pair,
)
from repro.experiments.config import ExperimentConfig
from repro.farm import merge_fleet, resolve_workers
from repro.faults.plan import FaultPlan
from repro.fleet import (
    cohort_plan,
    lane_fingerprint,
    pair_task,
    plan_lanes,
    plan_pairs,
    shared_corpus,
)
from repro.fleet.pairs import PairSummary
from repro.android.clock import Clock, FleetScheduler
from repro.qgj.campaigns import Campaign
from repro.qgj.fuzzer import FuzzConfig

TINY = ExperimentConfig(
    name="tiny",
    fuzz=FuzzConfig(
        strides={Campaign.A: 12, Campaign.B: 1, Campaign.C: 2, Campaign.D: 1},
        max_intents_per_component=2,
    ),
    ui_events=0,
)


def _summary(pair_id=0, cohort="flagship", **overrides):
    base = dict(
        pair_id=pair_id,
        cohort=cohort,
        model=FLEET_COHORTS[cohort].model,
        packages=("com.runmate.wear",),
        sent=100,
        delivered=90,
        crashes=2,
        anrs=1,
        not_found=3,
        security_exceptions=1,
        transport_failures=0,
        compat_mismatches=0,
        retries=0,
        quarantined=0,
        reboots=0,
        battery_end_pct=80,
        ambient_transitions=4,
        clock_ms=12_345.5,
    )
    base.update(overrides)
    return PairSummary(**base)


class TestCohortSpec:
    def test_default_spec_parses_to_every_cohort(self):
        parsed = parse_cohort_spec(DEFAULT_COHORT_SPEC)
        assert [name for name, _ in parsed] == [
            "flagship", "budget", "legacy", "aging",
        ]
        assert all(weight == 1 for _, weight in parsed)

    def test_weights_expand_the_cycle_in_order(self):
        parsed = parse_cohort_spec("flagship=2,legacy")
        assert cohort_cycle(parsed) == ("flagship", "flagship", "legacy")
        assert profile_for_pair(parsed, 0).cohort == "flagship"
        assert profile_for_pair(parsed, 2).cohort == "legacy"
        assert profile_for_pair(parsed, 3).cohort == "flagship"

    @pytest.mark.parametrize(
        "spec,message",
        [
            ("flagship,,legacy", "empty cohort entry"),
            ("fancywatch", "unknown cohort"),
            ("flagship,flagship", "listed twice"),
            ("flagship=x", "bad weight"),
            ("flagship=0", "weight must be >= 1"),
        ],
    )
    def test_bad_specs_rejected(self, spec, message):
        with pytest.raises(ValueError, match=message):
            parse_cohort_spec(spec)


class TestCohortPlan:
    def test_flagship_without_base_plan_stays_planless(self):
        assert cohort_plan(FLEET_COHORTS["flagship"], None) is None

    def test_skewed_cohort_arms_matrix_and_mismatch_stream(self):
        plan = cohort_plan(FLEET_COHORTS["legacy"], None)
        assert plan is not None
        assert plan.compat is not None
        assert plan.compat.phone_api == 23 and plan.compat.wear_api == 25
        # Two majors of skew bite twice as often as one.
        assert plan.compat_mismatch_every_ms == pytest.approx(60_000.0)
        aging = cohort_plan(FLEET_COHORTS["aging"], None)
        assert aging.compat_mismatch_every_ms == pytest.approx(120_000.0)

    def test_base_plan_mismatch_cadence_is_respected(self):
        base = FaultPlan(compat_mismatch_every_ms=5_000.0)
        plan = cohort_plan(FLEET_COHORTS["legacy"], base)
        assert plan.compat_mismatch_every_ms == pytest.approx(5_000.0)

    def test_cohort_pressure_layers_onto_the_base_plan(self):
        base = FaultPlan(seed=7, binder_every_ms=8_000.0)
        plan = cohort_plan(FLEET_COHORTS["budget"], base)
        assert plan.binder_every_ms == pytest.approx(8_000.0)
        assert plan.lmkd_every_ms == pytest.approx(900_000.0)


class TestPlanning:
    def test_pair_derivations_depend_only_on_the_global_id(self):
        packages = ["com.a", "com.b", "com.c"]
        pairs = plan_pairs(8, DEFAULT_COHORT_SPEC, TINY, packages, (Campaign.B,))
        again = plan_pairs(8, DEFAULT_COHORT_SPEC, TINY, packages, (Campaign.B,))
        assert pairs == again
        assert [p.cohort for p in pairs[:4]] == [
            "flagship", "budget", "legacy", "aging",
        ]
        assert [p.packages[0] for p in pairs[:4]] == [
            "com.a", "com.b", "com.c", "com.a",
        ]
        assert len({p.seed for p in pairs}) == len(pairs)

    def test_plan_pairs_validates_inputs(self):
        with pytest.raises(ValueError, match="fleet size"):
            plan_pairs(0, DEFAULT_COHORT_SPEC, TINY, ["com.a"], (Campaign.B,))
        with pytest.raises(ValueError, match="at least one package"):
            plan_pairs(4, DEFAULT_COHORT_SPEC, TINY, [], (Campaign.B,))

    def test_plan_lanes_strides_and_clamps(self):
        pairs = plan_pairs(
            10, DEFAULT_COHORT_SPEC, TINY, ["com.a"], (Campaign.B,)
        )
        lanes = plan_lanes(pairs, 4)
        assert [tuple(p.pair_id for p in lane) for lane in lanes] == [
            (0, 4, 8), (1, 5, 9), (2, 6), (3, 7),
        ]
        # More lanes than pairs collapses to one pair per lane.
        assert len(plan_lanes(pairs, 64)) == 10
        with pytest.raises(ValueError, match="lanes"):
            plan_lanes(pairs, 0)


class TestMergeFleet:
    def test_merge_reorders_by_pair_id(self):
        lane_a = dataclasses.make_dataclass("R", ["fleet"])(
            fleet=[_summary(2), _summary(0)]
        )
        lane_b = dataclasses.make_dataclass("R", ["fleet"])(fleet=[_summary(1)])
        merged = merge_fleet([lane_a, None, lane_b])
        assert [s.pair_id for s in merged] == [0, 1, 2]

    def test_duplicate_pair_ids_rejected(self):
        result = dataclasses.make_dataclass("R", ["fleet"])(
            fleet=[_summary(3), _summary(3)]
        )
        with pytest.raises(ValueError, match="two lanes"):
            merge_fleet([result])


class TestPairSummary:
    def test_json_round_trip(self):
        import json

        summary = _summary(7, cohort="aging", compat_mismatches=5, reboots=1)
        wire = json.loads(json.dumps(summary.to_record()))
        assert PairSummary.from_record(wire) == summary

    def test_from_record_ignores_journal_framing_keys(self):
        record = _summary(1).to_record()
        record["type"] = "pair"
        assert PairSummary.from_record(record) == _summary(1)

    def test_crash_rate(self):
        assert _summary(sent=0, crashes=0).crash_rate == 0.0
        assert _summary(sent=500, crashes=2).crash_rate == pytest.approx(4.0)


class TestPopulationReport:
    def test_nearest_rank_never_interpolates(self):
        values = [4.0, 1.0, 3.0, 2.0]
        assert nearest_rank(values, 50.0) == 2.0
        assert nearest_rank(values, 95.0) == 4.0
        assert nearest_rank(values, 100.0) == 4.0
        assert nearest_rank([7.5], 99.0) == 7.5
        with pytest.raises(ValueError, match="at least one"):
            nearest_rank([], 50.0)
        with pytest.raises(ValueError, match="percentile"):
            nearest_rank(values, 0.0)

    def test_report_groups_by_cohort_in_sorted_order(self):
        summaries = [
            _summary(0, "legacy", sent=1000, crashes=10),
            _summary(1, "flagship", sent=1000, crashes=1),
            _summary(2, "legacy", sent=1000, crashes=30),
        ]
        report = population_report(summaries)
        assert [c.cohort for c in report.cohorts] == ["flagship", "legacy"]
        legacy = report.cohort("legacy")
        assert legacy.pairs == 2
        assert legacy.crashes == 40
        assert legacy.crash_rate_p50 == pytest.approx(10.0)
        assert legacy.crash_rate_p99 == pytest.approx(30.0)
        assert report.pairs == 3 and report.crashes == 41
        with pytest.raises(KeyError):
            report.cohort("budget")

    def test_render_is_deterministic_and_labelled(self):
        summaries = [_summary(0), _summary(1, "budget")]
        rendered = render_population(population_report(summaries))
        assert rendered == render_population(population_report(summaries))
        assert "Fleet population report" in rendered
        assert "nearest-rank" in rendered
        assert rendered.index("budget") < rendered.index("flagship")


class TestResolveWorkers:
    def test_integer_passthrough(self):
        assert resolve_workers(4) == 4
        assert resolve_workers("3") == 3
        with pytest.raises(ValueError, match=">= 1"):
            resolve_workers(0)

    def test_auto_on_a_single_core_host_warns_and_runs_sequentially(
        self, monkeypatch, capsys
    ):
        monkeypatch.setattr("repro.farm.pool.os.cpu_count", lambda: 1)
        assert resolve_workers("auto", units=16) == 1
        err = capsys.readouterr().err
        assert "--workers auto resolved to 1" in err
        assert "cpu_count=1" in err

    def test_auto_never_exceeds_the_units_of_work(self, monkeypatch, capsys):
        monkeypatch.setattr("repro.farm.pool.os.cpu_count", lambda: 8)
        assert resolve_workers("auto", units=3) == 3
        assert capsys.readouterr().err == ""
        assert resolve_workers("auto", units=1) == 1
        assert "only 1 unit(s) of work" in capsys.readouterr().err

    def test_auto_without_units_uses_the_core_count(self, monkeypatch):
        monkeypatch.setattr("repro.farm.pool.os.cpu_count", lambda: 6)
        assert resolve_workers("auto") == 6


class TestLaneFingerprint:
    def test_fingerprint_tracks_every_identity_input(self):
        pairs = plan_pairs(
            4, DEFAULT_COHORT_SPEC, TINY, ["com.a"], (Campaign.B,)
        )
        base = lane_fingerprint(pairs)
        assert base == lane_fingerprint(list(pairs))
        assert lane_fingerprint(pairs[:2]) != base
        reseeded = [dataclasses.replace(pairs[0], seed=pairs[0].seed + 1)] + list(
            pairs[1:]
        )
        assert lane_fingerprint(reseeded) != base
        from repro.guided.study import GuidedConfig

        guided = [
            dataclasses.replace(p, guided=GuidedConfig(scheduler="ucb"))
            for p in pairs
        ]
        assert lane_fingerprint(guided) != base


class TestTrampolineEquivalence:
    def test_blocking_trampoline_matches_a_scheduler_run(self):
        corpus = shared_corpus(TINY.corpus_seed)
        packages = [corpus.apps[0].package.package]
        spec = plan_pairs(1, "budget", TINY, packages, (Campaign.A, Campaign.B))[0]

        # Blocking drive: advance to every yielded deadline immediately --
        # exactly what clock.sleep does in a one-pair blocking run.
        clock = Clock()
        task = pair_task(spec, corpus, clock=clock)
        try:
            deadline = next(task)
            while True:
                clock.advance_to(deadline)
                deadline = task.send(None)
        except StopIteration as stop:
            blocking = stop.value

        sched = FleetScheduler()
        fleet_clock = Clock()
        sched.add(spec.name, fleet_clock, pair_task(spec, corpus, clock=fleet_clock))
        multiplexed = sched.run()[spec.name]

        assert multiplexed == blocking
        assert fleet_clock.now_ms() == clock.now_ms()


class TestRunnerValidation:
    @pytest.mark.parametrize(
        "argv",
        [
            ["quick", "--cohorts", "flagship"],          # cohorts without --fleet
            ["quick", "--lanes", "4"],                   # lanes without --fleet
            ["quick", "--fleet", "0"],                   # fleet size floor
            ["quick", "--fleet", "4", "--lanes", "0"],   # lane floor
            ["quick", "--fleet", "4", "--cohorts", "nope"],
            ["quick", "--fleet", "4", "--json", "out.json"],
            ["quick", "--workers", "many"],
        ],
    )
    def test_bad_fleet_invocations_exit_2(self, argv, capsys):
        from repro.experiments import runner

        assert runner.main(argv) == 2
        capsys.readouterr()

    def test_fleet_run_prints_the_population_report(self, capsys):
        from repro.experiments import runner

        assert (
            runner.main(
                ["quick", "--fleet", "2", "--cohorts", "legacy", "--lanes", "2"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Fleet population report" in out
        assert "legacy" in out
        assert "2 pairs in 2 lane(s)" in out
