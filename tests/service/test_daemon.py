"""ServiceDaemon: crash anywhere, recover everywhere, never double-run.

The central property (ISSUE acceptance): ``kill -9`` the daemon at *any*
durability boundary and a restarted daemon completes the study to a
byte-identical report.  :class:`CrashPoint` enumerates the boundaries --
first a counting pass, then one simulated crash per boundary -- so the
property is checked exhaustively rather than sampled.

Everything runs the cheapest real scope (one package, campaign A) so the
whole file stays in test-suite territory while still driving the actual
study pipeline, WAL, store, and journals end to end.
"""

import pytest

from repro import faults, telemetry
from repro.experiments import wear_experiment
from repro.faults.errors import CampaignKilled
from repro.service import ServiceDaemon, SimulatedCrash, StudySpec
from repro.service.daemon import CrashPoint, EXIT_DRAINED, EXIT_IDLE, RootLockedError
from repro.service.lock import WriterLock
from repro.service.wal import DONE, POISONED

PKG = "com.pulsetrack.wear"
SPEC = StudySpec(kind="wear", config="quick", packages=(PKG,), campaigns=("A",))


@pytest.fixture(autouse=True)
def _clean_planes():
    yield
    faults.uninstall()
    telemetry.disable()


def _daemon(root, **kwargs):
    kwargs.setdefault("enable_telemetry", False)
    return ServiceDaemon(str(root), **kwargs)


def _reference_report(tmp_path):
    daemon = _daemon(tmp_path / "ref")
    daemon.start()
    daemon.submit(SPEC)
    assert daemon.serve_forever(until_idle=True) == EXIT_IDLE
    return daemon.store.get(SPEC.fingerprint()).report_text()


class TestCrashRecovery:
    def test_crash_at_every_boundary_recovers_byte_identical(self, tmp_path):
        reference = _reference_report(tmp_path)

        # Pass 1: count the durability boundaries of a clean run.
        counting = CrashPoint()
        daemon = _daemon(tmp_path / "count", crash_point=counting)
        daemon.start()
        daemon.submit(SPEC)
        daemon.serve_forever(until_idle=True)
        assert counting.count >= 4, counting.labels

        # Pass 2: simulate kill -9 at each boundary, then recover.
        for boundary in range(1, counting.count + 1):
            root = tmp_path / f"crash-{boundary}"
            first = _daemon(root, crash_point=CrashPoint(limit=boundary))
            crashed = False
            try:
                first.start()
                first.submit(SPEC)
                first.serve_forever(until_idle=True)
            except SimulatedCrash:
                crashed = True
            assert crashed, f"boundary {boundary} did not fire"

            second = _daemon(root)
            second.start()
            if second.queue.job(SPEC.fingerprint()) is None:
                second.submit(SPEC)  # crash predated the submit record
            assert second.serve_forever(until_idle=True) == EXIT_IDLE
            stored = second.store.get(SPEC.fingerprint())
            assert stored is not None, f"boundary {boundary}: no report"
            assert stored.report_text() == reference, (
                f"boundary {boundary} ({counting.labels[boundary - 1]}): "
                "recovered report differs"
            )

    def test_a_completed_study_is_never_double_run(self, tmp_path):
        # Crash *after* the WAL complete record: the restarted daemon must
        # not execute anything -- the job replays as DONE.
        counting = CrashPoint()
        daemon = _daemon(tmp_path / "count", crash_point=counting)
        daemon.start()
        daemon.submit(SPEC)
        daemon.serve_forever(until_idle=True)
        last = counting.count  # ...the post-complete boundary

        root = tmp_path / "after-complete"
        first = _daemon(root, crash_point=CrashPoint(limit=last))
        with pytest.raises(SimulatedCrash):
            first.start()
            first.submit(SPEC)
            first.serve_forever(until_idle=True)

        second = _daemon(root)
        second.start()
        assert second.queue.job(SPEC.fingerprint()).state == DONE
        assert second.serve_forever(until_idle=True) == EXIT_IDLE
        assert second.studies_completed == 0

    def test_crash_between_store_and_wal_complete_serves_the_store(self, tmp_path):
        # The torn window between "report persisted" and "complete logged":
        # recovery re-claims, finds the stored report, and completes the
        # WAL without re-running the study.
        counting = CrashPoint()
        daemon = _daemon(tmp_path / "count", crash_point=counting)
        daemon.start()
        daemon.submit(SPEC)
        daemon.serve_forever(until_idle=True)
        boundary = counting.labels.index("store:report") + 1

        root = tmp_path / "window"
        first = _daemon(root, crash_point=CrashPoint(limit=boundary))
        with pytest.raises(SimulatedCrash):
            first.start()
            first.submit(SPEC)
            first.serve_forever(until_idle=True)
        report_before = (root / "store" / "reports" / f"{SPEC.fingerprint()}.txt")
        mtime = report_before.stat().st_mtime_ns

        second = _daemon(root)
        second.start()
        assert second.serve_forever(until_idle=True) == EXIT_IDLE
        assert second.queue.job(SPEC.fingerprint()).state == DONE
        # Served from the store: the report bytes were never rewritten.
        assert report_before.stat().st_mtime_ns == mtime


class TestRetryAndResume:
    def test_failed_attempt_requeues_and_resumes_from_the_journal(
        self, tmp_path, monkeypatch
    ):
        reference = _reference_report(tmp_path)
        real_run = wear_experiment.run_wear_study
        calls = {"n": 0}

        def dying_first_attempt(config, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                # The host dies mid-study: segments already checkpointed.
                kwargs["kill_after_injections"] = 120
                with pytest.raises(CampaignKilled):
                    real_run(config, **kwargs)
                raise CampaignKilled("host died after 120 injections")
            return real_run(config, **kwargs)

        monkeypatch.setattr(wear_experiment, "run_wear_study", dying_first_attempt)
        daemon = _daemon(tmp_path / "svc")
        daemon.start()
        daemon.submit(SPEC)
        assert daemon.serve_forever(until_idle=True) == EXIT_IDLE
        job = daemon.queue.job(SPEC.fingerprint())
        assert job.state == DONE
        assert job.attempts == 2
        assert "host died" in job.error  # the failure stays on the record
        assert calls["n"] == 2
        assert daemon.store.get(SPEC.fingerprint()).report_text() == reference

    def test_poison_quarantine_completes_the_rest_degraded(self, tmp_path):
        bad = StudySpec(packages=("com.not.installed",), campaigns=("A",))
        daemon = _daemon(tmp_path / "svc", max_attempts=2)
        daemon.start()
        daemon.submit(bad)
        daemon.submit(SPEC)
        assert daemon.serve_forever(until_idle=True) == EXIT_IDLE
        assert daemon.queue.job(bad.fingerprint()).state == POISONED
        assert "not installed" in daemon.queue.job(bad.fingerprint()).error
        # The healthy study completed despite the poison ahead of it.
        assert daemon.queue.job(SPEC.fingerprint()).state == DONE


class TestServiceSemantics:
    def test_resubmitting_a_completed_spec_is_served_without_rerunning(
        self, tmp_path
    ):
        root = tmp_path / "svc"
        daemon = _daemon(root)
        daemon.start()
        daemon.submit(SPEC)
        daemon.serve_forever(until_idle=True)

        second = _daemon(root)
        second.start()
        result = second.submit(SPEC)
        assert result.cached
        assert second.serve_forever(until_idle=True) == EXIT_IDLE
        assert second.studies_completed == 0  # nothing executed

    def test_guided_studies_merge_their_corpus_into_the_store(self, tmp_path):
        spec = StudySpec(
            kind="guided", config="quick", packages=(PKG,), guided_budget=300
        )
        daemon = _daemon(tmp_path / "svc")
        daemon.start()
        daemon.submit(spec)
        assert daemon.serve_forever(until_idle=True) == EXIT_IDLE
        assert len(daemon.store.corpus()) > 0
        assert daemon.store.segments(app=PKG)
        report = daemon.store.get(spec.fingerprint()).report_text()
        assert report.startswith("Guided fuzzing study")

    def test_a_guided_study_fuzzes_only_its_campaigns(self, tmp_path):
        default = StudySpec(
            kind="guided", config="quick", packages=(PKG,), guided_budget=300
        )
        only_a = StudySpec(
            kind="guided",
            config="quick",
            packages=(PKG,),
            campaigns=("A",),
            guided_budget=300,
        )
        daemon = _daemon(tmp_path / "svc")
        daemon.start()
        daemon.submit(default)
        daemon.submit(only_a)
        assert daemon.serve_forever(until_idle=True) == EXIT_IDLE

        def arm_campaigns(spec):
            report = daemon.store.get(spec.fingerprint()).report_text()
            arms = report.split("arms (plays / intents / novel):\n")[1]
            return report, [line.split()[1] for line in arms.split("\n\n")[0].splitlines()]

        default_report, default_arms = arm_campaigns(default)
        only_a_report, only_a_arms = arm_campaigns(only_a)
        assert sorted(default_arms) == ["A", "B", "C", "D"]
        assert only_a_arms == ["A"]
        assert only_a_report != default_report

    def test_request_drain_exits_130_with_the_queue_released(self, tmp_path):
        daemon = _daemon(tmp_path / "svc")
        daemon.start()
        daemon.submit(SPEC)
        daemon.request_drain()
        assert daemon.serve_forever(until_idle=True) == EXIT_DRAINED
        # Nothing leased, nothing lost: the WAL still holds the study.
        job = daemon.queue.job(SPEC.fingerprint())
        assert job.state == "queued"

    def test_discovery_file_lifecycle(self, tmp_path):
        root = tmp_path / "svc"
        daemon = _daemon(root)
        daemon.start()
        assert (root / "daemon.json").exists()
        daemon.serve_forever(until_idle=True)
        # Clean exit removes discovery; SIGKILL would leave it, and the
        # client's pid probe treats the stale file as "no daemon".
        assert not (root / "daemon.json").exists()

    def test_config_leftovers_survive_shutdown(self, tmp_path):
        import json

        root = tmp_path / "svc"
        daemon = _daemon(root, capacity=5, max_attempts=2)
        daemon.start()
        daemon.serve_forever(until_idle=True)
        # Unlike discovery, service.json stays: offline clients admit
        # against the configured bounds, not hardcoded defaults.
        with open(root / "service.json", encoding="utf-8") as fh:
            config = json.load(fh)
        assert config["capacity"] == 5
        assert config["max_attempts"] == 2


class TestWriterLock:
    def test_second_daemon_on_a_served_root_fails_fast(self, tmp_path):
        root = tmp_path / "svc"
        first = _daemon(root)
        with pytest.raises(RootLockedError, match="writer lock"):
            _daemon(root)
        # ...and the loser's failed acquire did not break the holder.
        first.start()
        first.submit(SPEC)
        assert first.serve_forever(until_idle=True) == EXIT_IDLE

    def test_lock_is_released_after_serve_forever(self, tmp_path):
        root = tmp_path / "svc"
        daemon = _daemon(root)
        daemon.start()
        daemon.serve_forever(until_idle=True)
        replacement = _daemon(root)  # would raise were the lock leaked
        replacement.serve_forever(until_idle=True)

    def test_simulated_crash_releases_the_lock_like_a_real_kill(self, tmp_path):
        # A real SIGKILL drops the flock with the process; the in-process
        # simulation must end in the same lock state or restarts deadlock.
        root = tmp_path / "svc"
        first = _daemon(root, crash_point=CrashPoint(limit=1))
        with pytest.raises(SimulatedCrash):
            first.start()
        second = _daemon(root)
        second.serve_forever(until_idle=True)


class TestSignalRobustness:
    def test_interrupt_between_claims_exits_drained(self, tmp_path, monkeypatch):
        # A second SIGTERM can land while the loop is between claims (poll
        # sleep, expire): it must take the documented drain exit, not
        # escape serve_forever as a traceback.
        daemon = _daemon(tmp_path / "svc")
        daemon.start()

        def interrupting_expire():
            raise KeyboardInterrupt

        monkeypatch.setattr(daemon.queue, "expire", interrupting_expire)
        assert daemon.serve_forever(until_idle=True) == EXIT_DRAINED
