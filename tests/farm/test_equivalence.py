"""The farm's central contract: worker count never changes the study.

``workers=1`` (sequential, in-process) is the reference; every other
worker count must reproduce its tables bit-for-bit -- with and without an
armed fault plan, and through a journalled resume.  The scope is kept to
two small apps and two campaigns: enough to cross package and campaign
boundaries (and trigger one reboot) without simulating the full corpus.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import faults, telemetry
from repro.experiments.config import QUICK
from repro.experiments.phone_experiment import run_phone_study
from repro.experiments.wear_experiment import run_wear_study
from repro.faults.plan import FaultPlan
from repro.qgj.campaigns import Campaign
from repro.telemetry.metrics import INTENTS_INJECTED

#: com.pulsetrack.wear reboots deterministically in campaign A;
#: com.runmate.wear is well-behaved.  Together they cross every merge path.
PACKAGES = ["com.pulsetrack.wear", "com.runmate.wear"]
CAMPAIGNS = (Campaign.A, Campaign.B)


@pytest.fixture(autouse=True)
def _no_leaked_plane():
    yield
    faults.uninstall()


def _fingerprint(study):
    return {
        "wire": study.summary.to_wire(),
        "app_campaign": {
            key: value.value for key, value in study.collector.app_campaign.items()
        },
        "reboots": [
            (reboot.time_ms, reboot.package, reboot.campaign)
            for reboot in study.collector.reboots
        ],
        "segments": study.collector.segments_folded,
        "clock": study.shard_clock_ms,
    }


class TestWorkerCountEquivalence:
    def test_wear_study_identical_at_1_2_and_4_workers(self):
        runs = {
            workers: run_wear_study(
                QUICK, packages=PACKAGES, campaigns=CAMPAIGNS, workers=workers
            )
            for workers in (1, 2, 4)
        }
        reference = _fingerprint(runs[1])
        assert _fingerprint(runs[2]) == reference
        assert _fingerprint(runs[4]) == reference

    def test_phone_study_identical_across_workers(self):
        phone_packages = ["com.android.settings", "com.android.contacts"]
        serial = run_phone_study(QUICK, packages=phone_packages, campaigns=CAMPAIGNS)
        fanned = run_phone_study(
            QUICK, packages=phone_packages, campaigns=CAMPAIGNS, workers=2
        )
        assert fanned.summary.to_wire() == serial.summary.to_wire()
        assert fanned.collector.app_campaign == serial.collector.app_campaign
        assert fanned.shard_clock_ms == serial.shard_clock_ms

    @settings(
        max_examples=3,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_equivalence_holds_under_fault_plans(self, seed):
        # No adb drops here: their expovariate gaps can cluster enough at an
        # adversarial seed to exhaust the 6-attempt log-pull retry, aborting
        # the study (identically at every worker count, but killing the
        # comparison).  Drop handling is covered deterministically by
        # tests/experiments/test_resume.py and the CI chaos smoke; the
        # remaining kinds are absorbed in-harness and can never escape.
        plan = FaultPlan(
            seed=seed,
            binder_every_ms=8_000.0,
            lmkd_every_ms=30_000.0,
            logcat_truncate_every_ms=60_000.0,
        )
        with faults.session(plan):
            serial = run_wear_study(QUICK, packages=PACKAGES, campaigns=CAMPAIGNS)
        with faults.session(plan):
            fanned = run_wear_study(
                QUICK, packages=PACKAGES, campaigns=CAMPAIGNS, workers=2
            )
        assert _fingerprint(fanned) == _fingerprint(serial)


class TestCrashedWorkerEquivalence:
    """A retried shard merges byte-identical to a clean run.

    Supervision's half of the determinism contract: re-running the same
    pure function of the same spec after a worker death produces the same
    shard result, so the merged study cannot tell a crash happened -- only
    the health report can.
    """

    def test_crash_injected_first_attempt_merges_identically(self, monkeypatch):
        clean = run_wear_study(QUICK, packages=PACKAGES, campaigns=CAMPAIGNS)
        monkeypatch.setenv("REPRO_FARM_CRASH", "com.pulsetrack.wear=raise@1")
        crashed = run_wear_study(
            QUICK, packages=PACKAGES, campaigns=CAMPAIGNS, workers=2
        )
        assert _fingerprint(crashed) == _fingerprint(clean)
        assert crashed.health is not None
        assert crashed.health.retries_total == 1
        assert not crashed.health.degraded
        row = next(s for s in crashed.health.shards if s.key == "com.pulsetrack.wear")
        assert [attempt.outcome for attempt in row.attempts] == ["exception", "ok"]

    def test_hard_exit_crash_merges_identically(self, monkeypatch):
        clean = run_wear_study(QUICK, packages=PACKAGES, campaigns=CAMPAIGNS)
        monkeypatch.setenv("REPRO_FARM_CRASH", "com.runmate.wear=exit@0")
        crashed = run_wear_study(
            QUICK, packages=PACKAGES, campaigns=CAMPAIGNS, workers=2
        )
        assert _fingerprint(crashed) == _fingerprint(clean)
        row = next(s for s in crashed.health.shards if s.key == "com.runmate.wear")
        assert [attempt.outcome for attempt in row.attempts] == ["crash", "ok"]


class TestTelemetryEquivalence:
    @staticmethod
    def _projection(tracer):
        # Worker merges re-issue span ids, so equivalence is judged on the
        # id-less deterministic view; each span's parent is named by the
        # tree test below.
        return [
            (
                span.name,
                tuple(sorted(span.attributes.items())),
                span.start_virtual_ms,
                span.end_virtual_ms,
            )
            for span in tracer.spans()
        ]

    def test_merged_trace_keeps_every_parent_link(self):
        # A shard's spans arrive children first (a span is recorded when it
        # finishes), so the merge must map the whole batch before linking.
        trees = {}
        for workers in (1, 2):
            with telemetry.session() as t:
                run_wear_study(
                    QUICK, packages=PACKAGES, campaigns=CAMPAIGNS, workers=workers
                )
                spans = t.tracer.spans()
            names = {span.span_id: span.name for span in spans}
            trees[workers] = [
                (view, names.get(span.parent_id))
                for view, span in zip(self._projection(t.tracer), spans)
            ]
        assert any(parent == "package" for _, parent in trees[1])
        assert trees[2] == trees[1]

    def test_worker_local_telemetry_merges_to_the_in_process_totals(self):
        with telemetry.session() as t:
            run_wear_study(QUICK, packages=PACKAGES, campaigns=CAMPAIGNS)
            serial_intents = t.metrics.get(INTENTS_INJECTED).total()
            serial_spans = [span.name for span in t.tracer.spans()]
        with telemetry.session() as t:
            run_wear_study(QUICK, packages=PACKAGES, campaigns=CAMPAIGNS, workers=2)
            fanned_intents = t.metrics.get(INTENTS_INJECTED).total()
            fanned_spans = [span.name for span in t.tracer.spans()]
        assert fanned_intents == serial_intents
        assert fanned_spans == serial_spans


class TestShardedResume:
    def test_journalled_sharded_study_resumes_to_the_same_summary(self, tmp_path):
        journal = str(tmp_path / "study.jsonl")
        base = run_wear_study(QUICK, packages=PACKAGES, campaigns=CAMPAIGNS, workers=2)
        recorded = run_wear_study(
            QUICK,
            packages=PACKAGES,
            campaigns=CAMPAIGNS,
            journal_path=journal,
            workers=2,
        )
        resumed = run_wear_study(
            QUICK, journal_path=journal, resume=True, workers=2
        )
        assert recorded.summary.to_wire() == base.summary.to_wire()
        assert resumed.summary.to_wire() == base.summary.to_wire()
        assert resumed.shard_clock_ms == base.shard_clock_ms

    def test_resume_with_a_different_worker_count_is_rejected(self, tmp_path):
        journal = str(tmp_path / "study.jsonl")
        run_wear_study(
            QUICK,
            packages=PACKAGES,
            campaigns=CAMPAIGNS,
            journal_path=journal,
            workers=2,
        )
        with pytest.raises(ValueError, match="--workers 2"):
            run_wear_study(QUICK, journal_path=journal, resume=True, workers=4)

    def test_resume_without_journal_is_rejected(self):
        with pytest.raises(ValueError, match="journal_path"):
            run_wear_study(QUICK, packages=PACKAGES, resume=True)
