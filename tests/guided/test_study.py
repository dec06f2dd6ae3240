"""End-to-end tests for the guided study: determinism, budget, coverage."""

import pytest

from repro import faults, telemetry
from repro.apps.catalog import build_wear_corpus
from repro.experiments.config import QUICK
from repro.faults.plan import CompatMatrix, FaultPlan
from repro.guided import (
    GuidedConfig,
    blind_equivalent_budget,
    run_guided_study,
)
from repro.qgj.campaigns import Campaign, campaign_size
from repro.telemetry.metrics import AM_DISPATCHES, INTENTS_INJECTED, LOGCAT_WRITTEN


def packages(count):
    corpus = build_wear_corpus(seed=QUICK.corpus_seed)
    return [app.package.package for app in corpus.apps][:count]


SMALL = GuidedConfig(budget=2_000, block_size=100, arms_per_round=4)


class TestDeterminism:
    def test_worker_count_never_changes_the_result(self, tmp_path):
        pkgs = packages(3)
        artifacts = {}
        for workers in (1, 2, 4):
            result = run_guided_study(QUICK, SMALL, packages=pkgs, workers=workers)
            out = tmp_path / f"w{workers}"
            result.save(str(out))
            artifacts[workers] = (
                result.render(),
                (out / "corpus.jsonl").read_bytes(),
                (out / "schedule.jsonl").read_bytes(),
            )
        assert artifacts[1] == artifacts[2] == artifacts[4]

    def test_same_seed_same_run(self):
        pkgs = packages(2)
        a = run_guided_study(QUICK, SMALL, packages=pkgs)
        b = run_guided_study(QUICK, SMALL, packages=pkgs)
        assert a.render() == b.render()
        assert a.corpus.digest() == b.corpus.digest()

    def test_different_seed_diverges(self):
        pkgs = packages(2)
        a = run_guided_study(QUICK, SMALL, packages=pkgs)
        b = run_guided_study(
            QUICK,
            GuidedConfig(budget=2_000, block_size=100, arms_per_round=4, seed=99),
            packages=pkgs,
        )
        # The corpus keys on behaviour, which is fairly stable, but the
        # schedule must reflect the different mutation streams somewhere.
        assert a.render() != b.render() or a.corpus.digest() != b.corpus.digest()

    def test_thompson_is_deterministic_too(self, tmp_path):
        pkgs = packages(2)
        config = GuidedConfig(
            scheduler="thompson", budget=1_200, block_size=100, arms_per_round=3
        )
        runs = [
            run_guided_study(QUICK, config, packages=pkgs, workers=workers)
            for workers in (1, 2)
        ]
        assert runs[0].render() == runs[1].render()
        assert runs[0].corpus.digest() == runs[1].corpus.digest()


class TestTelemetry:
    @staticmethod
    def _counters(workers):
        with telemetry.session() as t:
            result = run_guided_study(
                QUICK, SMALL, packages=packages(2), workers=workers
            )
            counters = {
                (metric.name, tuple(sorted(labels.items()))): child.value
                for metric in t.metrics.collect()
                if metric.kind == "counter"
                for labels, child in metric.samples()
            }
            return result.total_sent, counters

    def test_device_counters_recorded_and_worker_invariant(self):
        sent, reference = self._counters(1)
        totals = {}
        for (name, _labels), value in reference.items():
            totals[name] = totals.get(name, 0) + value
        for name in (AM_DISPATCHES, LOGCAT_WRITTEN):
            assert totals.get(name, 0) > 0, name
        # Guided blocks run through the fuzzer's one component loop, so
        # every intent they send is counted like a blind campaign's.
        assert sent > 0
        assert totals.get(INTENTS_INJECTED) == sent
        assert self._counters(2) == (sent, reference)


class TestBudget:
    def test_allocated_budget_is_exhausted_exactly(self):
        result = run_guided_study(QUICK, SMALL, packages=packages(2))
        allocated = sum(f[2] for record in result.rounds for f in record.funded)
        assert allocated == SMALL.budget
        assert result.total_sent <= SMALL.budget

    def test_round_zero_sweeps_every_arm(self):
        pkgs = packages(2)
        result = run_guided_study(QUICK, SMALL, packages=pkgs)
        funded_arms = {(f[0], f[1]) for record in result.rounds for f in record.funded}
        assert funded_arms == {
            (p, c.value) for p in pkgs for c in Campaign
        }

    def test_blind_equivalent_budget_matches_campaign_arithmetic(self):
        pkgs = packages(1)
        corpus = build_wear_corpus(seed=QUICK.corpus_seed)
        package = next(
            app.package for app in corpus.apps if app.package.package == pkgs[0]
        )
        per_component = sum(
            campaign_size(c, QUICK.fuzz.stride_for(c)) for c in Campaign
        )
        expected = len(package.components) * per_component
        assert blind_equivalent_budget(QUICK, pkgs) == expected

    def test_unknown_package_rejected(self):
        with pytest.raises(ValueError, match="not in the wear catalog"):
            run_guided_study(QUICK, SMALL, packages=["com.nonsense.app"])


class TestFeedback:
    def test_corpus_and_crashes_accumulate(self):
        result = run_guided_study(QUICK, SMALL, packages=packages(3))
        assert len(result.corpus) > 0
        assert result.total_sent > 0
        assert sum(result.outcomes.values()) == result.total_sent
        # Corpus growth is monotone round over round.
        sizes = [record.corpus_size for record in result.rounds]
        assert sizes == sorted(sizes)

    def test_budget_shifts_toward_novel_arms(self):
        # After the round-zero sweep the bandit must not keep funding arms
        # uniformly: at least one arm ends with more blocks than another.
        result = run_guided_study(
            QUICK,
            GuidedConfig(budget=6_000, block_size=100, arms_per_round=4),
            packages=packages(3),
        )
        plays = [arm["plays"] for arm in result.scheduler_snapshot["arms"]]
        assert max(plays) > min(plays)

    def test_report_mentions_the_essentials(self):
        result = run_guided_study(QUICK, SMALL, packages=packages(2))
        report = result.render()
        assert "Guided fuzzing study" in report
        assert f"budget: {SMALL.budget}" in report
        assert "corpus:" in report
        assert "distinct crash buckets:" in report


class TestChaosComposition:
    """``--guided`` composes with the chaos plane (``--fault-seed`` et al.):
    every round derives the same per-package plan a blind shard would get,
    so the worker count still never changes the result."""

    CHAOS = FaultPlan(
        seed=13,
        binder_every_ms=20_000.0,
        service_outage_every_ms=60_000.0,
        service_corrupt_every_ms=80_000.0,
        compat_mismatch_every_ms=60_000.0,
        compat=CompatMatrix.from_skew(2),
    )

    def test_worker_count_invariant_under_a_fault_plan(self):
        pkgs = packages(2)
        results = []
        for workers in (1, 2):
            with faults.session(self.CHAOS):
                results.append(
                    run_guided_study(QUICK, SMALL, packages=pkgs, workers=workers)
                )
        assert results[0].render() == results[1].render()
        assert results[0].corpus.digest() == results[1].corpus.digest()

    def test_faulted_and_clean_runs_are_both_deterministic(self):
        pkgs = packages(2)
        clean = run_guided_study(QUICK, SMALL, packages=pkgs)
        with faults.session(self.CHAOS):
            faulted_a = run_guided_study(QUICK, SMALL, packages=pkgs)
        with faults.session(self.CHAOS):
            faulted_b = run_guided_study(QUICK, SMALL, packages=pkgs)
        assert faulted_a.render() == faulted_b.render()
        # The plan genuinely reached the guided dispatch path: the faulted
        # run cannot be byte-identical to the clean one at these rates.
        assert faulted_a.render() != clean.render() or (
            faulted_a.corpus.digest() != clean.corpus.digest()
        )


class TestGuidedVsBlind:
    def test_equal_budget_guided_finds_at_least_blind_buckets(self):
        # The PR's acceptance bar, on a small-but-crashy catalog slice so the
        # test stays fast: guided >= blind on distinct (component, exception)
        # buckets at the blind study's own intent budget.
        from repro.experiments.ablations import ablate_guided_vs_blind

        pkgs = [
            "com.google.android.apps.fitness",
            "com.motorola.omega.body",
            "com.pulsetrack.wear",
        ]
        rows = ablate_guided_vs_blind(packages=pkgs)
        by_mode = {row.mode: row for row in rows}
        assert by_mode["guided"].intents == by_mode["blind"].intents
        assert (
            by_mode["guided"].distinct_buckets >= by_mode["blind"].distinct_buckets
        )
        assert by_mode["guided"].corpus_size > 0
