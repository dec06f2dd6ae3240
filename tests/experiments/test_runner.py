"""Tests for the cached study runners and the report entry point."""

from pathlib import Path

import pytest

from repro.experiments import runner
from repro.experiments.config import QUICK


class TestCaching:
    def test_wear_study_is_memoised(self, monkeypatch):
        calls = []

        def fake_run(config):
            calls.append(config)
            return object()

        monkeypatch.setattr(runner, "run_wear_study", fake_run)
        runner.wear_study.cache_clear()
        first = runner.wear_study("quick")
        second = runner.wear_study("quick")
        assert first is second
        assert len(calls) == 1
        runner.wear_study.cache_clear()

    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError):
            runner.wear_study("bogus")
        runner.wear_study.cache_clear()


class TestMain:
    def test_main_validates_config_name(self, capsys):
        assert runner.main(["bogus"]) == 2
        err = capsys.readouterr().err
        assert "'bogus'" in err
        assert "usage: python -m repro" in err

    def test_main_prints_report(self, monkeypatch, capsys):
        monkeypatch.setattr(runner, "full_report", lambda name: f"REPORT[{name}]")
        assert runner.main(["quick"]) == 0
        assert "REPORT[quick]" in capsys.readouterr().out

    def test_main_defaults_to_quick(self, monkeypatch, capsys):
        monkeypatch.setattr(runner, "full_report", lambda name: f"REPORT[{name}]")
        assert runner.main([]) == 0
        assert "REPORT[quick]" in capsys.readouterr().out


class TestFullReportAssembly:
    def test_full_report_stitches_all_sections(self, monkeypatch):
        class FakeWear:
            intents_sent = 10
            reboot_count = 2

            def virtual_hours(self):
                return 1.5

            class summary:  # noqa: N801 - stand-in attribute
                pass

        # Assembling the real report needs real studies; check the section
        # list indirectly through the quick study in integration/benchmarks.
        # Here we only verify the seams: by_name validation and defaults.
        assert QUICK.name == "quick"
        assert QUICK.ui_events == 4000


class TestJsonCli:
    def test_json_flag_requires_path(self, capsys):
        import repro.experiments.runner as runner_module

        assert runner_module.main(["quick", "--json"]) == 2

    def test_json_flag_writes_file(self, monkeypatch, tmp_path, capsys):
        import repro.experiments.runner as runner_module

        written = {}

        def fake_export(config_name, path=None):
            written["args"] = (config_name, path)
            return "{}"

        monkeypatch.setattr(runner_module, "export_json", fake_export)
        target = str(tmp_path / "out.json")
        assert runner_module.main(["quick", "--json", target]) == 0
        assert written["args"] == ("quick", target)
        assert "wrote" in capsys.readouterr().out


class TestOsChaosCli:
    @pytest.fixture(autouse=True)
    def _no_leaked_plane(self):
        from repro import faults

        yield
        faults.uninstall()

    def test_compat_skew_range_validated(self, capsys):
        assert runner.main(["quick", "--compat-skew", "-1"]) == 2
        assert "--compat-skew must be in" in capsys.readouterr().err
        assert runner.main(["quick", "--compat-skew", "99"]) == 2

    def test_service_fault_seed_arms_the_service_streams(self, monkeypatch):
        from repro import faults
        from repro.faults.plan import FaultKind

        monkeypatch.setattr(runner, "full_report", lambda name: "REPORT")
        assert runner.main(["quick", "--service-fault-seed", "5"]) == 0
        plan = faults.get().plan
        assert plan.seed == 5
        assert plan.interval_for(FaultKind.SERVICE_OUTAGE) is not None
        assert plan.interval_for(FaultKind.SYSTEM_RESTART) is not None
        assert plan.interval_for(FaultKind.BINDER) is None  # transport off

    def test_all_three_flags_compose_into_one_plan(self, monkeypatch):
        from repro import faults
        from repro.faults.plan import FaultKind

        monkeypatch.setattr(runner, "full_report", lambda name: "REPORT")
        assert (
            runner.main(
                [
                    "quick",
                    "--fault-seed",
                    "7",
                    "--service-fault-seed",
                    "5",
                    "--compat-skew",
                    "3",
                ]
            )
            == 0
        )
        plan = faults.get().plan
        assert plan.seed == 7  # the chaos base keeps its seed
        for kind in FaultKind:
            assert plan.interval_for(kind) is not None
        assert plan.compat is not None and plan.compat.skew == 3

    def test_compat_skew_alone_arms_only_the_compat_stream(self, monkeypatch):
        from repro import faults
        from repro.faults.plan import FaultKind

        monkeypatch.setattr(runner, "full_report", lambda name: "REPORT")
        assert runner.main(["quick", "--compat-skew", "2"]) == 0
        plan = faults.get().plan
        armed = {k for k in FaultKind if plan.interval_for(k) is not None}
        assert armed == {FaultKind.COMPAT_MISMATCH}
        assert plan.compat.skew == 2

    def test_guided_composes_with_chaos_flags(self, monkeypatch, capsys):
        # --guided used to reject --fault-seed outright; now the plan rides
        # into the guided study (per-package derived plans, see study.py).
        from repro import faults

        calls = {}

        def fake_guided(config, guided_config, **kwargs):
            calls["fingerprint"] = faults.fingerprint()

            class R:
                def render(self):
                    return "GUIDED REPORT"

                def save(self, path):
                    pass

            return R()

        monkeypatch.setattr(
            "repro.guided.run_guided_study", fake_guided, raising=False
        )
        assert (
            runner.main(
                ["quick", "--guided", "--fault-seed", "7", "--compat-skew", "2"]
            )
            == 0
        )
        assert calls["fingerprint"] != "none"
        assert "compat=23/25" in calls["fingerprint"]
        assert "GUIDED REPORT" in capsys.readouterr().out


class TestGuidedSupervisionCli:
    def test_guided_forwards_shard_timeout_and_attempts(self, monkeypatch):
        calls = {}

        def fake_guided(config, guided_config, **kwargs):
            calls.update(kwargs)

            class R:
                def render(self):
                    return "GUIDED REPORT"

            return R()

        monkeypatch.setattr(
            "repro.guided.run_guided_study", fake_guided, raising=False
        )
        argv = ["quick", "--guided", "--shard-timeout", "5", "--max-shard-attempts", "3"]
        assert runner.main(argv) == 0
        assert calls["shard_timeout"] == 5.0
        assert calls["max_shard_attempts"] == 3
        assert "allow_partial" not in calls

    def test_guided_rejects_allow_partial(self, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise AssertionError("the guided study must not run")

        monkeypatch.setattr("repro.guided.run_guided_study", fail, raising=False)
        assert runner.main(["quick", "--guided", "--allow-partial"]) == 2
        assert "--allow-partial" in capsys.readouterr().err


class TestTelemetryCli:
    def test_sample_flag_requires_telemetry_dir(self, capsys):
        assert runner.main(["quick", "--telemetry-sample", "10"]) == 2
        assert "--telemetry-sample requires --telemetry" in capsys.readouterr().err

    def test_profile_flag_requires_telemetry_dir(self, capsys):
        assert runner.main(["quick", "--profile"]) == 2
        assert "--profile requires --telemetry" in capsys.readouterr().err

    def test_sample_rate_validated(self, capsys):
        assert (
            runner.main(["quick", "--telemetry", "/tmp/x", "--telemetry-sample", "0"])
            == 2
        )
        assert "--telemetry-sample must be >= 1" in capsys.readouterr().err

    def test_telemetry_dir_exports_snapshot(self, monkeypatch, tmp_path, capsys):
        from repro import telemetry

        monkeypatch.setattr(runner, "full_report", lambda name: f"REPORT[{name}]")
        out = tmp_path / "tele"
        assert runner.main(["quick", "--telemetry", str(out)]) == 0
        assert (out / "metrics.prom").exists()
        assert (out / "trace.jsonl").exists()
        assert (out / "summary.txt").exists()
        assert not (out / "profile.collapsed").exists()
        assert not telemetry.get().enabled  # session closed on the way out

    def test_profile_flag_writes_collapsed_stacks(self, monkeypatch, tmp_path):
        monkeypatch.setattr(runner, "full_report", lambda name: f"REPORT[{name}]")
        out = tmp_path / "tele"
        assert runner.main(["quick", "--telemetry", str(out), "--profile"]) == 0
        assert (out / "profile.collapsed").exists()

    def test_profile_brackets_the_segment_fold(self, monkeypatch, tmp_path, capsys):
        """Each segment's fold is a ``fold`` phase of its own, and profiling
        leaves the report byte-identical."""
        from repro.analysis import figures, report, tables
        from repro.qgj.campaigns import Campaign

        def small_report(name):
            wear = runner.run_wear_study(
                QUICK, packages=["com.cardiowatch.wear"], campaigns=(Campaign.A, Campaign.B)
            )
            collector = wear.collector
            return "\n".join(
                (
                    report.render_table3(tables.table3_behaviors(collector)),
                    report.render_fig3a(figures.fig3a_manifestations(collector)),
                    report.render_reboot_postmortems(collector),
                )
            )

        monkeypatch.setattr(runner, "full_report", small_report)
        assert runner.main(["quick"]) == 0
        plain = capsys.readouterr().out
        out = tmp_path / "tele"
        assert runner.main(["quick", "--telemetry", str(out), "--profile"]) == 0
        profiled = capsys.readouterr().out.splitlines(keepends=True)
        assert "".join(line for line in profiled if not line.startswith("wrote ")) == plain
        stacks = dict(
            line.rsplit(" ", 1) for line in (out / "profile.collapsed").read_text().splitlines()
        )
        assert "fold" in stacks
        assert not any(stack.startswith("fold;") for stack in stacks)

    def test_sampling_session_armed_from_flag(self, monkeypatch, tmp_path):
        from repro import telemetry

        seen = {}

        def fake_report(name):
            seen["sample_every"] = telemetry.get().tracer.sample_every
            return "REPORT"

        monkeypatch.setattr(runner, "full_report", fake_report)
        out = tmp_path / "tele"
        assert (
            runner.main(
                ["quick", "--telemetry", str(out), "--telemetry-sample", "25"]
            )
            == 0
        )
        assert seen["sample_every"] == 25


class TestResumeCli:
    """A bare --resume runs the study its manifest names; a journal the run
    cannot resume is refused with the usage exit code, before anything is
    armed."""

    PKG = "com.runmate.wear"

    @pytest.fixture(autouse=True)
    def _no_leaked_state(self):
        from repro import faults, telemetry

        yield
        faults.uninstall()
        telemetry.disable()

    @pytest.fixture(scope="class")
    def wear_journal(self, tmp_path_factory):
        from repro.experiments.wear_experiment import run_wear_study
        from repro.qgj.campaigns import Campaign

        journal = str(tmp_path_factory.mktemp("wear") / "wear.jsonl")
        run_wear_study(
            QUICK, packages=[self.PKG], campaigns=(Campaign.B,), journal_path=journal
        )
        return journal

    def test_a_bare_resume_runs_the_fleet_its_manifest_names(self, tmp_path, capsys):
        import glob

        from repro.faults.errors import CampaignKilled
        from repro.fleet import run_fleet_study
        from repro.qgj.campaigns import Campaign

        fleet = dict(config=QUICK, lanes=2, packages=[self.PKG], campaigns=(Campaign.B,))
        clean = run_fleet_study(4, **fleet)
        journal = str(tmp_path / "fleet.jsonl")
        with pytest.raises(CampaignKilled):
            run_fleet_study(
                4, journal_path=journal, kill_after_injections=clean.intents_sent * 3 // 4,
                **fleet,
            )
        lanes = glob.glob(journal + ".shard-*")
        assert any('"type": "pair"' in Path(path).read_text() for path in lanes)
        capsys.readouterr()
        assert runner.main(["quick", "--resume", journal]) == 0
        assert capsys.readouterr().out == clean.render() + "\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["quick", "--fault-seed", "3"], "resume under the original plan"),
            (["paper"], "recorded under config 'quick', not 'paper'"),
            (["quick", "--fleet", "4"], "recorded by a 'wear' study, not a fleet study"),
        ],
    )
    def test_a_refused_resume_exits_2(self, wear_journal, argv, message, capsys):
        from repro import faults

        recorded = Path(wear_journal).read_bytes()
        assert runner.main(argv + ["--resume", wear_journal]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "usage: python -m repro" in err
        assert not faults.get().armed
        assert Path(wear_journal).read_bytes() == recorded

    def test_a_phone_journal_is_refused(self, tmp_path, capsys):
        from repro.experiments.wear_experiment import run_wear_study
        from repro.qgj.campaigns import Campaign

        journal = str(tmp_path / "phone.jsonl")
        run_wear_study(
            QUICK,
            packages=["com.android.settings"],
            campaigns=(Campaign.B,),
            journal_path=journal,
            kind="phone",
        )
        assert runner.main(["quick", "--resume", journal]) == 2
        assert "recorded by a 'phone' study, not a wear study" in capsys.readouterr().err

    def test_a_resume_of_a_missing_journal_exits_2(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.jsonl")
        assert runner.main(["quick", "--resume", missing]) == 2
        err = capsys.readouterr().err
        assert "No such file" in err and missing in err

    def test_a_refused_call_arms_nothing(self, capsys):
        from repro import faults, telemetry

        assert runner.main(["quick", "--fault-seed", "7", "--profile"]) == 2
        assert "--profile requires --telemetry" in capsys.readouterr().err
        assert not faults.get().armed
        assert not telemetry.get().enabled
