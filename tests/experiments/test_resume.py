"""Resilience tests: checkpoint/resume identity, reboot invariants, caching.

All runs here use a single small app (``com.pulsetrack.wear``) whose
campaign A deterministically triggers one device reboot -- the cheapest
scope that still exercises the full reboot/recovery path.
"""

import dataclasses
import glob
import json
import shutil
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro import faults
from repro.experiments import runner
from repro.experiments.config import PAPER, QUICK
from repro.experiments.wear_experiment import run_wear_study
from repro.farm import shard as shard_module
from repro.faults.errors import CampaignKilled
from repro.faults.journal import CheckpointJournal
from repro.faults.plan import CHAOS_INTERVALS_MS, CompatMatrix, FaultKind, FaultPlan
from repro.fleet import run_fleet_study
from repro.qgj.campaigns import Campaign

PKG = "com.pulsetrack.wear"

#: Aggressive intervals (seconds, not the chaos defaults' tens of minutes)
#: so even the tiny test scope (one ~108-virtual-second segment) sees every
#: fault kind.  Drops stay sparse enough for the log-pull retry to absorb.
PLAN = FaultPlan(
    seed=13,
    adb_drop_every_ms=45_000.0,
    binder_every_ms=8_000.0,
    lmkd_every_ms=30_000.0,
    logcat_truncate_every_ms=60_000.0,
)

#: The transport plan widened with the OS-service and compat families, at
#: rates dense enough to manifest in-scope but sparse enough that compat
#: rejections never trip the consecutive-failure quarantine threshold.
OS_PLAN = dataclasses.replace(
    PLAN,
    service_outage_every_ms=30_000.0,
    service_corrupt_every_ms=40_000.0,
    system_restart_every_ms=120_000.0,
    compat_mismatch_every_ms=60_000.0,
    compat=CompatMatrix.from_skew(3),
)


@pytest.fixture(autouse=True)
def _no_leaked_plane():
    yield
    faults.uninstall()


def _wire(result):
    return result.summary.to_wire()


class TestKillAndResume:
    def test_resume_reproduces_the_uninterrupted_summary(self, tmp_path):
        campaigns = (Campaign.A, Campaign.B)
        with faults.session(PLAN):
            base = run_wear_study(QUICK, packages=[PKG], campaigns=campaigns)
        journal = str(tmp_path / "run.jsonl")
        with faults.session(PLAN):
            # Campaign A sends ~670 intents, so 800 lands inside campaign B:
            # the killed shard re-runs from a fresh rig on resume.
            with pytest.raises(CampaignKilled) as exc_info:
                run_wear_study(
                    QUICK,
                    packages=[PKG],
                    campaigns=campaigns,
                    journal_path=journal,
                    kill_after_injections=800,
                )
            assert exc_info.value.injections == 800
        with faults.session(PLAN):
            resumed = run_wear_study(QUICK, journal_path=journal, resume=True)
        assert _wire(resumed) == _wire(base)
        assert resumed.collector.reboots == base.collector.reboots
        assert resumed.shard_clock_ms == base.shard_clock_ms

    def test_resume_under_os_chaos_reproduces_the_summary(self, tmp_path):
        # Same identity bar as the transport-only plan, with outage windows,
        # corrupted replies, a possible system_server bounce, and compat
        # mismatches in the re-run shard.
        campaigns = (Campaign.A, Campaign.B)
        with faults.session(OS_PLAN):
            base = run_wear_study(QUICK, packages=[PKG], campaigns=campaigns)
        journal = str(tmp_path / "run.jsonl")
        with faults.session(OS_PLAN):
            with pytest.raises(CampaignKilled):
                run_wear_study(
                    QUICK,
                    packages=[PKG],
                    campaigns=campaigns,
                    journal_path=journal,
                    kill_after_injections=800,
                )
        with faults.session(OS_PLAN):
            resumed = run_wear_study(QUICK, journal_path=journal, resume=True)
        assert _wire(resumed) == _wire(base)
        assert resumed.shard_clock_ms == base.shard_clock_ms

    def test_kill_before_first_checkpoint_restarts_from_scratch(self, tmp_path):
        with faults.session(PLAN):
            base = run_wear_study(QUICK, packages=[PKG], campaigns=(Campaign.A,))
        journal = str(tmp_path / "run.jsonl")
        with faults.session(PLAN):
            with pytest.raises(CampaignKilled):
                run_wear_study(
                    QUICK,
                    packages=[PKG],
                    campaigns=(Campaign.A,),
                    journal_path=journal,
                    kill_after_injections=50,
                )
        with faults.session(PLAN):
            resumed = run_wear_study(QUICK, journal_path=journal, resume=True)
        assert _wire(resumed) == _wire(base)

    def test_resume_requires_a_journal_path(self):
        with pytest.raises(ValueError, match="journal_path"):
            run_wear_study(QUICK, resume=True)

    def test_kill_after_works_at_two_workers(self, tmp_path):
        # The satellite fix: one shared kill switch counts injections
        # study-wide across worker processes, so --kill-after no longer
        # requires --workers 1.  The killed parallel run resumes (at the
        # same worker count) to the uninterrupted summary.
        packages = [PKG, "com.runmate.wear"]
        campaigns = (Campaign.A, Campaign.B)
        base = run_wear_study(QUICK, packages=packages, campaigns=campaigns, workers=2)
        journal = str(tmp_path / "run.jsonl")
        with pytest.raises(CampaignKilled) as exc_info:
            run_wear_study(
                QUICK,
                packages=packages,
                campaigns=campaigns,
                journal_path=journal,
                kill_after_injections=800,
                workers=2,
            )
        assert exc_info.value.injections >= 800
        resumed = run_wear_study(QUICK, journal_path=journal, resume=True, workers=2)
        assert _wire(resumed) == _wire(base)
        assert resumed.collector.reboots == base.collector.reboots

    def test_resume_rejects_a_different_config(self, tmp_path):
        journal = str(tmp_path / "run.jsonl")
        with pytest.raises(CampaignKilled):
            run_wear_study(
                QUICK,
                packages=[PKG],
                campaigns=(Campaign.A,),
                journal_path=journal,
                kill_after_injections=50,
            )
        with pytest.raises(ValueError, match="config"):
            run_wear_study(PAPER, journal_path=journal, resume=True)

    def test_resume_rejects_a_different_fault_plan(self, tmp_path):
        journal = str(tmp_path / "run.jsonl")
        with faults.session(PLAN):
            with pytest.raises(CampaignKilled):
                run_wear_study(
                    QUICK,
                    packages=[PKG],
                    campaigns=(Campaign.A,),
                    journal_path=journal,
                    kill_after_injections=50,
                )
        # No plan installed now: the fingerprints cannot match.
        with pytest.raises(ValueError, match="fault plan"):
            run_wear_study(QUICK, journal_path=journal, resume=True)


class TestShardGranularResume:
    """A journal holds each shard's header and, once it finishes, its
    result: resume loads finished shards and re-runs the rest."""

    PACKAGES = [PKG, "com.runmate.wear"]
    CAMPAIGNS = (Campaign.A, Campaign.B)
    #: The CLI's ``--fault-seed 7`` plan: sparse enough for two packages.
    PLAN = FaultPlan.chaos(seed=7)

    @pytest.fixture(scope="class")
    def base(self):
        with faults.session(self.PLAN):
            return run_wear_study(QUICK, packages=self.PACKAGES, campaigns=self.CAMPAIGNS)

    @pytest.fixture
    def rigs(self, monkeypatch):
        """The keys of the shards that build a fresh device rig in the test."""
        built, current = [], []
        run_blind_shard, build_rig = shard_module._run_blind_shard, shard_module.build_rig

        def tracking(spec, *args):
            current[:] = [spec.key]
            return run_blind_shard(spec, *args)

        def counting(*args, **kwargs):
            built.append(current[0])
            return build_rig(*args, **kwargs)

        monkeypatch.setitem(shard_module._SHARD_BODIES, "wear", tracking)
        monkeypatch.setattr(shard_module, "build_rig", counting)
        return built

    def _run(self, **kwargs):
        with faults.session(self.PLAN):
            return run_wear_study(QUICK, **kwargs)

    def _kill_inside_shard_1(self, base, journal, rigs):
        # Past shard 1's first segment, so the kill lands mid-shard with a
        # finished segment behind it.
        sent = [app.sent for app in base.summary.apps]
        with pytest.raises(CampaignKilled):
            self._run(
                packages=self.PACKAGES,
                campaigns=self.CAMPAIGNS,
                journal_path=journal,
                kill_after_injections=sent[0] + sent[1] + sent[2] + 50,
            )
        assert rigs == self.PACKAGES
        # Only the finished shard left a result record.
        assert glob.glob(journal + ".shard-*.state") == [journal + ".shard-000.state"]
        rigs.clear()

    def _check(self, resumed, base):
        assert _wire(resumed) == _wire(base)
        assert resumed.collector.reboots == base.collector.reboots
        assert resumed.shard_clock_ms == base.shard_clock_ms

    def test_resume_loads_the_finished_shard_and_reruns_the_other(self, tmp_path, base, rigs):
        journal = str(tmp_path / "run.jsonl")
        self._kill_inside_shard_1(base, journal, rigs)
        resumed = self._run(journal_path=journal, resume=True)
        assert rigs == ["com.runmate.wear"]
        self._check(resumed, base)

    def test_a_killed_resume_resumes_again(self, tmp_path, base, rigs):
        journal = str(tmp_path / "run.jsonl")
        self._kill_inside_shard_1(base, journal, rigs)
        with pytest.raises(CampaignKilled):
            self._run(journal_path=journal, resume=True, kill_after_injections=30)
        assert rigs == ["com.runmate.wear"]
        rigs.clear()
        resumed = self._run(journal_path=journal, resume=True)
        assert rigs == ["com.runmate.wear"]
        self._check(resumed, base)

    def test_a_leftover_tmp_record_is_ignored(self, tmp_path, base, rigs):
        journal = str(tmp_path / "run.jsonl")
        self._kill_inside_shard_1(base, journal, rigs)
        # A kill inside save_state leaves a partial temp file behind.
        with open(journal + ".shard-001.state.tmp", "wb") as fh:
            fh.write(b"\x80\x05torn")
        resumed = self._run(journal_path=journal, resume=True)
        assert rigs == ["com.runmate.wear"]
        self._check(resumed, base)

    def test_a_record_that_is_not_a_shard_result_is_rejected(self, tmp_path, base, rigs):
        journal = str(tmp_path / "run.jsonl")
        self._kill_inside_shard_1(base, journal, rigs)
        # What a device-snapshot journal left at a finished shard's path.
        CheckpointJournal(journal + ".shard-000").save_state({"version": 4, "index": 2})
        with pytest.raises(ValueError, match="not a result record"):
            self._run(journal_path=journal, resume=True)

    def test_a_fresh_run_drops_the_records_of_an_earlier_run(self, tmp_path, rigs):
        # A finished run under one plan, then a fresh run under another,
        # killed inside shard 0 before shard 1 starts: the resume must
        # re-run shard 1 under the new plan, not merge the old record.
        other = FaultPlan.chaos(seed=8)
        with faults.session(other):
            expected = run_wear_study(QUICK, packages=self.PACKAGES, campaigns=self.CAMPAIGNS)
        journal = str(tmp_path / "run.jsonl")
        self._run(packages=self.PACKAGES, campaigns=self.CAMPAIGNS, journal_path=journal)
        with faults.session(other):
            with pytest.raises(CampaignKilled):
                run_wear_study(
                    QUICK,
                    packages=self.PACKAGES,
                    campaigns=self.CAMPAIGNS,
                    journal_path=journal,
                    kill_after_injections=50,
                )
            assert glob.glob(journal + ".shard-*.state") == []
            rigs.clear()
            resumed = run_wear_study(QUICK, journal_path=journal, resume=True)
        assert rigs == self.PACKAGES
        self._check(resumed, expected)

    def test_a_record_from_another_plan_is_rejected(self, tmp_path, base, rigs):
        foreign = str(tmp_path / "foreign.jsonl")
        with faults.session(FaultPlan.chaos(seed=8)):
            run_wear_study(
                QUICK, packages=self.PACKAGES, campaigns=self.CAMPAIGNS, journal_path=foreign
            )
        rigs.clear()
        journal = str(tmp_path / "run.jsonl")
        self._kill_inside_shard_1(base, journal, rigs)
        # Shard 0's journal and record as another plan's run left them.
        for suffix in (".shard-000", ".shard-000.state"):
            shutil.copyfile(foreign + suffix, journal + suffix)
        with pytest.raises(ValueError, match="fault_fingerprint"):
            self._run(journal_path=journal, resume=True)


class TestStudyKind:
    """The manifest names its study, and a resume under another kind is
    refused before any shard runs."""

    def _wear_journal(self, tmp_path):
        journal = str(tmp_path / "wear.jsonl")
        base = run_wear_study(
            QUICK, packages=["com.runmate.wear"], campaigns=(Campaign.B,), journal_path=journal
        )
        return journal, base

    def test_a_phone_resume_of_a_wear_journal_is_refused(self, tmp_path):
        journal, _ = self._wear_journal(tmp_path)
        with pytest.raises(ValueError, match="'wear' study, not a phone study"):
            run_wear_study(QUICK, journal_path=journal, resume=True, kind="phone")

    def test_a_wear_resume_of_a_fleet_journal_leaves_every_journal_untouched(self, tmp_path):
        journal = str(tmp_path / "fleet.jsonl")
        run_fleet_study(
            2,
            config=QUICK,
            lanes=2,
            packages=["com.runmate.wear"],
            campaigns=(Campaign.B,),
            journal_path=journal,
        )

        def files():
            return {path: Path(path).read_bytes() for path in glob.glob(journal + "*")}

        before = files()
        assert journal + ".shard-001" in before
        with pytest.raises(ValueError, match="'fleet' study, not a wear study"):
            run_wear_study(QUICK, journal_path=journal, resume=True)
        assert files() == before

    def test_a_manifest_without_a_study_resumes_as_wear(self, tmp_path):
        journal, base = self._wear_journal(tmp_path)
        # Manifests written before they named their study lack the key.
        with open(journal, encoding="utf-8") as fh:
            header = json.loads(fh.readline())
        del header["study"]
        with open(journal, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
        resumed = run_wear_study(QUICK, journal_path=journal, resume=True)
        assert _wire(resumed) == _wire(base)


class TestRebootInvariant:
    """The paper's recovery rule: a reboot aborts the rest of the app's run
    and each triggering segment reboots exactly once."""

    def _check(self, result):
        (app,) = result.summary.apps
        assert app.aborted_by_reboot
        assert [c.rebooted for c in app.components].count(True) == 1
        assert app.components[-1].rebooted  # nothing fuzzed past the reboot
        assert result.reboot_count == 1

    def test_reboot_aborts_rest_of_app_without_faults(self):
        result = run_wear_study(QUICK, packages=[PKG], campaigns=(Campaign.A,))
        self._check(result)

    def test_reboot_invariant_holds_under_chaos(self):
        with faults.session(PLAN):
            result = run_wear_study(QUICK, packages=[PKG], campaigns=(Campaign.A,))
        self._check(result)


class TestEmptyPlanIsNoPlan:
    """Arming an empty plan must not perturb the simulation at all."""

    @given(seed=st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=5, deadline=None)
    def test_empty_plan_matches_no_plan(self, seed, baseline):
        with faults.session(FaultPlan(seed=seed)):
            armed = run_wear_study(QUICK, packages=[PKG], campaigns=(Campaign.A,))
        assert _wire(armed) == _wire(baseline)
        assert armed.shard_clock_ms == baseline.shard_clock_ms

    def test_zero_skew_compat_stream_matches_no_plan(self, baseline):
        # Stronger than the empty plan: the compat stream is *armed* and
        # fires, but the matrix is matched, so every event drains silently
        # and the run stays byte-identical to an unfaulted one.
        plan = FaultPlan(
            seed=0,
            compat=CompatMatrix(),
            compat_mismatch_every_ms=CHAOS_INTERVALS_MS[FaultKind.COMPAT_MISMATCH],
        )
        with faults.session(plan):
            armed = run_wear_study(QUICK, packages=[PKG], campaigns=(Campaign.A,))
        assert _wire(armed) == _wire(baseline)
        assert armed.shard_clock_ms == baseline.shard_clock_ms

    @pytest.fixture(scope="class")
    def baseline(self):
        return run_wear_study(QUICK, packages=[PKG], campaigns=(Campaign.A,))


class TestRunnerCacheKeying:
    def test_cache_keys_on_fault_fingerprint(self, monkeypatch):
        calls = []

        def fake_run(config, **kwargs):
            calls.append((config.name, faults.fingerprint(), kwargs))
            return object()

        monkeypatch.setattr(runner, "run_wear_study", fake_run)
        runner.wear_study.cache_clear()
        plain = runner.wear_study("quick")
        assert runner.wear_study("quick") is plain
        faults.install(FaultPlan.chaos(seed=7))
        faulted = runner.wear_study("quick")
        assert faulted is not plain
        assert runner.wear_study("quick") is faulted
        faults.uninstall()
        # Back to the unfaulted key: served from cache, no third run.
        assert runner.wear_study("quick") is plain
        assert len(calls) == 2
        runner.wear_study.cache_clear()

    def test_stateful_kwargs_bypass_the_cache(self, monkeypatch, tmp_path):
        calls = []

        def fake_run(config, **kwargs):
            calls.append(kwargs)
            return object()

        monkeypatch.setattr(runner, "run_wear_study", fake_run)
        runner.wear_study.cache_clear()
        journal = str(tmp_path / "run.jsonl")
        first = runner.wear_study("quick", journal_path=journal)
        second = runner.wear_study("quick", journal_path=journal)
        assert first is not second
        assert calls == [{"journal_path": journal}, {"journal_path": journal}]
        runner.wear_study.cache_clear()
