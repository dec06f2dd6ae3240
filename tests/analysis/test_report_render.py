"""Tests for the ASCII report renderers (edge cases and formatting)."""

from repro.analysis import report
from repro.analysis.figures import NO_EXCEPTION
from repro.analysis.manifest import StudyCollector
from repro.android.package_manager import AppCategory, AppOrigin, PackageInfo


class TestShorten:
    def test_strips_package(self):
        assert report._shorten("java.lang.NullPointerException") == "NullPointerException"

    def test_bare_name_unchanged(self):
        assert report._shorten("NoDots") == "NoDots"


class TestBarRendering:
    def test_sorted_by_share_then_name(self):
        lines = report._render_bar({"b.Bbb": 0.2, "a.Aaa": 0.2, "c.Ccc": 0.6})
        assert "Ccc" in lines[0]
        assert "Aaa" in lines[1]
        assert "Bbb" in lines[2]

    def test_zero_share_has_no_bar(self):
        lines = report._render_bar({"a.A": 0.0})
        assert lines[0].rstrip().endswith("0.0%")

    def test_small_share_gets_minimum_bar(self):
        lines = report._render_bar({"a.A": 0.001})
        assert lines[0].rstrip().endswith("#")


class TestTableRenderers:
    def test_table5_empty_rows(self):
        text = report.render_table5([])
        assert "TABLE V" in text

    def test_table4_totals_row(self):
        rows = [
            {"exception": "x.X", "crashes": 3, "share": 0.75},
            {"exception": "Others", "crashes": 1, "share": 0.25},
        ]
        text = report.render_table4(rows)
        assert "Total" in text and "4" in text

    def test_fig3b_handles_empty_bars(self):
        text = report.render_fig3b(
            {"No Effect": {}, "Hang": {}, "Crash": {}, "Reboot": {}},
            {"No Effect": 0, "Hang": 0, "Crash": 0, "Reboot": 0},
        )
        assert text.count("(none)") == 4

    def test_fig3b_renders_no_exception_label(self):
        text = report.render_fig3b(
            {
                "No Effect": {NO_EXCEPTION: 1.0},
                "Hang": {},
                "Crash": {},
                "Reboot": {},
            },
            {"No Effect": 5, "Hang": 0, "Crash": 0, "Reboot": 0},
        )
        assert "(no exception)" in text

    def test_reboot_postmortems_empty(self):
        collector = StudyCollector(
            [
                PackageInfo(
                    package="com.a",
                    label="A",
                    category=AppCategory.OTHER,
                    origin=AppOrigin.THIRD_PARTY,
                    components=[],
                )
            ]
        )
        assert report.render_reboot_postmortems(collector) == "No device reboots observed."
