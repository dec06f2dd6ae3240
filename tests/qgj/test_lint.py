"""Tests for QGJ-Lint, the static robustness inspection."""

import pytest

from repro.android.component import ComponentInfo, ComponentKind
from repro.android.device import Device
from repro.android.intent import ComponentName, IntentFilter, launcher_filter
from repro.android.package_manager import AppCategory, AppOrigin, PackageInfo
from repro.apps.catalog import build_wear_corpus
from repro.qgj.lint import (
    Severity,
    correlate,
    lint_device,
    lint_package,
    render_report,
)
from repro.wear.device import WearDevice


def package_with(components, origin=AppOrigin.THIRD_PARTY, **kwargs):
    return PackageInfo(
        package="com.a",
        label="A",
        category=AppCategory.OTHER,
        origin=origin,
        components=components,
        **kwargs,
    )


def component(name="com.a.Main", kind=ComponentKind.ACTIVITY, **kwargs):
    return ComponentInfo(name=ComponentName("com.a", name), kind=kind, **kwargs)


class TestChecks:
    def test_exported_unguarded_flagged(self):
        findings = lint_package(package_with([component(exported=True)]))
        checks = [f.check for f in findings]
        assert "exported-unguarded" in checks

    def test_guarded_component_clean(self):
        findings = lint_package(
            package_with(
                [component(exported=True, permission="android.permission.BODY_SENSORS")]
            )
        )
        assert all(f.check != "exported-unguarded" for f in findings)

    def test_launcher_exempt_from_exported_check(self):
        findings = lint_package(
            package_with([component(intent_filters=[launcher_filter()])])
        )
        assert all(f.check != "exported-unguarded" for f in findings)

    def test_large_attack_surface(self):
        components = [component(name=f"com.a.C{i}") for i in range(25)]
        findings = lint_package(package_with(components))
        assert any(f.check == "large-attack-surface" for f in findings)

    def test_protected_action_filter(self):
        comp = component(
            intent_filters=[
                IntentFilter(actions=["android.intent.action.BOOT_COMPLETED"])
            ]
        )
        findings = lint_package(package_with([comp]))
        protected = [f for f in findings if f.check == "protected-action-filter"]
        assert len(protected) == 1
        assert "BOOT_COMPLETED" in protected[0].message

    def test_legacy_widget(self):
        findings = lint_package(package_with([component()], targets_wear2=False))
        legacy = [f for f in findings if f.check == "legacy-widget"]
        assert len(legacy) == 1
        assert legacy[0].severity == Severity.ERROR
        assert "GridViewPager" in legacy[0].message

    def test_sensor_direct(self):
        findings = lint_package(package_with([component()], uses_sensor_manager=True))
        assert any(f.check == "sensor-direct" for f in findings)

    def test_signature_permission_third_party_only(self):
        device = Device()
        pkg = package_with(
            [component()],
            requested_permissions=["android.permission.DEVICE_POWER"],
        )
        findings = lint_package(pkg, device.permissions)
        assert any(f.check == "signature-permission" for f in findings)

        builtin = package_with(
            [component()],
            origin=AppOrigin.BUILT_IN,
            requested_permissions=["android.permission.DEVICE_POWER"],
        )
        findings = lint_package(builtin, device.permissions)
        assert all(f.check != "signature-permission" for f in findings)


class TestCorpusLint:
    @pytest.fixture(scope="class")
    def watch(self):
        corpus = build_wear_corpus(seed=2018)
        device = WearDevice("lint-watch")
        corpus.install(device)
        return device

    def test_flags_the_named_problem_apps(self, watch):
        findings = lint_device(watch)
        by_package = {}
        for finding in findings:
            by_package.setdefault(finding.package, set()).add(finding.check)
        assert "legacy-widget" in by_package["com.stridelog.wear"]
        assert "sensor-direct" in by_package["com.pulsetrack.wear"]

    def test_every_app_has_findings(self, watch):
        findings = lint_device(watch)
        packages = {f.package for f in findings}
        # Every corpus app exposes unguarded components somewhere.
        assert len(packages) >= 40

    def test_render_report(self, watch):
        text = render_report(lint_device(watch), limit=5)
        assert "QGJ-LINT REPORT" in text
        assert "exported-unguarded" in text
        assert "... and" in text


class TestCorrelation:
    def test_lint_catches_all_dynamic_crashes(self):
        """Every component QGJ crashed was statically flaggable.

        The study's crashes all entered through exported, unguarded
        components -- so lint recall over the dynamic findings must be 1.0
        (with lint's known cost: a high flag rate).
        """
        from repro.analysis.manifest import StudyCollector
        from repro.qgj.campaigns import Campaign
        from repro.qgj.fuzzer import FuzzConfig, FuzzerLibrary

        corpus = build_wear_corpus(seed=2018)
        watch = WearDevice("corr-watch")
        corpus.install(watch)
        collector = StudyCollector(corpus.packages())
        fuzzer = FuzzerLibrary(watch)
        adb = watch.adb
        adb.logcat_clear()
        for package in ("com.runmate.wear", "com.fitband.wear", "com.motorola.omega.body"):
            for campaign in Campaign:
                fuzzer.fuzz_app(
                    package,
                    campaign,
                    FuzzConfig(strides={Campaign.A: 12, Campaign.B: 1, Campaign.C: 2, Campaign.D: 1}),
                )
                collector.fold(adb.logcat_records(), package, campaign.value)
                adb.logcat_clear()
        result = correlate(lint_device(watch), collector)
        assert result.crashed_components > 0
        assert result.recall == pytest.approx(1.0)
        assert 0 < result.flag_rate < 1
