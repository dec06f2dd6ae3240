"""Tests for the table and figure builders over a synthetic collector."""

import pytest

from repro.analysis import figures, report, tables
from repro.analysis.manifest import Manifestation, StudyCollector
from repro.android.clock import Clock
from repro.android.component import ComponentInfo, ComponentKind
from repro.android.intent import ComponentName, launcher_filter
from repro.android.jtypes import (
    IllegalArgumentException,
    IllegalStateException,
    NullPointerException,
    frame,
)
from repro.android.log import Logcat
from repro.android.package_manager import AppCategory, AppOrigin, PackageInfo
from repro.qgj.ui_fuzzer import UiInjectionResult


def make_package(pkg, category, origin, n_components=4):
    components = [
        ComponentInfo(
            name=ComponentName(pkg, f"{pkg}.C{i}"),
            kind=ComponentKind.ACTIVITY if i % 2 == 0 else ComponentKind.SERVICE,
            intent_filters=[launcher_filter()] if i == 0 else [],
        )
        for i in range(n_components)
    ]
    return PackageInfo(
        package=pkg, label=pkg, category=category, origin=origin, components=components
    )


@pytest.fixture()
def collector():
    packages = [
        make_package("com.health", AppCategory.HEALTH_FITNESS, AppOrigin.THIRD_PARTY),
        make_package("com.builtin", AppCategory.OTHER, AppOrigin.BUILT_IN),
        make_package("com.other", AppCategory.OTHER, AppOrigin.THIRD_PARTY),
    ]
    collector = StudyCollector(packages)
    clock = Clock()
    logcat = Logcat(clock)

    # Crash in the health app (campaign A).
    exc = NullPointerException("x")
    exc.with_frames([frame("com.health.C1", "onStartCommand", 1)], "service")
    logcat.fatal_exception("com.health", 1, exc)
    collector.fold(logcat.records(), "com.health", "A")
    logcat.clear()

    # Crash in the built-in app (campaign B).
    exc = IllegalStateException("y")
    exc.with_frames([frame("com.builtin.C0", "onCreate", 2)], "activity")
    logcat.fatal_exception("com.builtin", 2, exc)
    collector.fold(logcat.records(), "com.builtin", "B")
    logcat.clear()

    # Handled exception in the other app (no effect, campaign B).
    handled = IllegalArgumentException("rejected")
    handled.frames = [frame("com.other.C2", "validateIntent", 3)]
    logcat.handled_exception("T", 3, handled)
    collector.fold(logcat.records(), "com.other", "B")
    logcat.clear()

    # ANR in the other app (campaign C).
    logcat.anr("com.other", 3, "com.other/.C1", "blocked")
    collector.fold(logcat.records(), "com.other", "C")
    return collector


class TestFig2:
    def test_distribution_excludes_security(self, collector):
        data = figures.fig2_exception_distribution(collector)
        assert "java.lang.SecurityException" not in data["overall"]
        assert data["overall"]["java.lang.NullPointerException"] == 1
        assert data["overall"]["java.lang.IllegalArgumentException"] == 1

    def test_grouped_by_kind(self, collector):
        data = figures.fig2_exception_distribution(collector)
        assert data["by_kind"]["service"]["java.lang.NullPointerException"] == 1
        assert data["by_kind"]["activity"]["java.lang.IllegalStateException"] == 1

    def test_render(self, collector):
        text = report.render_fig2(figures.fig2_exception_distribution(collector))
        assert "SecurityException share" in text


class TestFig3:
    def test_manifestation_counts(self, collector):
        data = figures.fig3a_manifestations(collector)
        assert data["total_components"] == 12
        assert data["counts"]["Crash"] == 2
        assert data["counts"]["Hang"] == 1
        assert data["counts"]["No Effect"] == 9
        assert sum(data["counts"].values()) == 12

    def test_shares_sum_to_one(self, collector):
        data = figures.fig3a_manifestations(collector)
        assert sum(data["shares"].values()) == pytest.approx(1.0)

    def test_rootcause_by_manifestation(self, collector):
        data = figures.fig3b_rootcause_by_manifestation(collector)
        assert data["Crash"]["java.lang.NullPointerException"] == pytest.approx(0.5)
        assert data["Crash"]["java.lang.IllegalStateException"] == pytest.approx(0.5)
        # The silent ANR shows up as (no exception).
        assert data["Hang"][figures.NO_EXCEPTION] == pytest.approx(1.0)
        # 8 silent no-effect components + 1 with a handled IAE.
        assert data["No Effect"][figures.NO_EXCEPTION] == pytest.approx(8 / 9)

    def test_each_bar_normalised(self, collector):
        data = figures.fig3b_rootcause_by_manifestation(collector)
        for label, shares in data.items():
            if shares:
                assert sum(shares.values()) == pytest.approx(1.0), label

    def test_render(self, collector):
        text = report.render_fig3b(
            figures.fig3b_rootcause_by_manifestation(collector),
            figures.fig3b_base_counts(collector),
        )
        assert "Crash (n=2 components)" in text


class TestFig4:
    def test_app_crash_rates(self, collector):
        data = figures.fig4_crashes_by_app_class(collector)
        assert data["app_crash_rate"]["Built-in"] == pytest.approx(1.0)   # 1/1
        assert data["app_crash_rate"]["Third Party"] == pytest.approx(0.5)  # 1/2

    def test_class_shares_over_both_classes_together(self, collector):
        data = figures.fig4_crashes_by_app_class(collector)
        total = sum(
            share for shares in data["class_shares"].values() for share in shares.values()
        )
        assert total == pytest.approx(1.0)

    def test_render(self, collector):
        text = report.render_fig4(figures.fig4_crashes_by_app_class(collector))
        assert "apps crashed" in text


class TestTables:
    def test_table2(self, collector):
        packages = [
            make_package("com.x", AppCategory.HEALTH_FITNESS, AppOrigin.BUILT_IN, 3)
        ]
        rows = tables.table2_population(packages)
        assert rows[0]["apps"] == 1
        assert rows[0]["activities"] == 2
        assert rows[0]["services"] == 1
        assert rows[-1]["category"] == "Total"

    def test_table3_shares(self, collector):
        data = tables.table3_behaviors(collector)
        # Campaign A: the only health app crashed -> 100% crash for health.
        assert data["A"]["Crash"]["Health/Fitness"] == pytest.approx(1.0)
        assert data["A"]["Crash"]["Not Health/Fitness"] == pytest.approx(0.0)
        # Campaign C: 1 of 2 not-health apps hung.
        assert data["C"]["Hang"]["Not Health/Fitness"] == pytest.approx(0.5)

    def test_table3_rows_sum_to_one_per_category(self, collector):
        data = tables.table3_behaviors(collector)
        for campaign, per_manifestation in data.items():
            for category in ("Health/Fitness", "Not Health/Fitness"):
                total = sum(
                    per_manifestation[m.label][category] for m in Manifestation
                )
                assert total == pytest.approx(1.0), (campaign, category)

    def test_table4_per_component_dedup(self, collector):
        rows = tables.table4_phone_crashes(collector)
        total = sum(row["crashes"] for row in rows)
        assert total == 2  # two crash components, one class each
        assert rows[-1]["exception"] == "Others" or len(rows) >= 1

    def test_table5(self):
        results = {
            "semi-valid": UiInjectionResult(
                mode="semi-valid", injected_events=1000, tool_exceptions=10,
                app_exceptions=26, crashes=1,
            ),
            "random": UiInjectionResult(
                mode="random", injected_events=1000, tool_exceptions=15,
                app_exceptions=0, crashes=0,
            ),
        }
        rows = tables.table5_ui(results)
        assert rows[0]["experiment"] == "semi-valid"
        assert rows[0]["exceptions_raised"] == 36
        assert rows[0]["exception_rate"] == pytest.approx(0.036)
        assert rows[1]["crashes"] == 0
        text = report.render_table5(rows)
        assert "semi-valid" in text

    def test_table1_includes_measured_volumes(self):
        from repro.qgj.campaigns import Campaign
        from repro.qgj.results import AppRunResult, ComponentRunResult, FuzzSummary

        summary = FuzzSummary(device="w")
        app = AppRunResult(package="com.a", campaign=Campaign.A)
        app.components.append(
            ComponentRunResult(
                component="com.a/.M", kind=ComponentKind.ACTIVITY,
                campaign=Campaign.A, sent=42,
            )
        )
        summary.apps.append(app)
        rows = tables.table1_campaigns(summary)
        row_a = next(r for r in rows if r["campaign"] == Campaign.A)
        assert row_a["intents_sent"] == 42
        text = report.render_table1(rows)
        assert "measured this run: 42" in text
