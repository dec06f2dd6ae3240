"""End-to-end integration tests over the experiment harnesses.

These run the real pipeline -- corpus → QGJ → logcat → parser → classifier
→ tables/figures -- on focused subsets so the suite stays fast; the full
corpus runs live in ``benchmarks/``.
"""

import pytest

from repro.analysis import figures, tables
from repro.analysis.manifest import Manifestation
from repro.apps.builtin import AMBIENT_BINDER_PACKAGE, GOOGLE_FIT_PACKAGE
from repro.apps.health import HEART_RATE_PACKAGE
from repro.experiments.config import QUICK, ExperimentConfig
from repro.experiments.phone_experiment import run_phone_study
from repro.experiments.ui_experiment import run_ui_study
from repro.experiments.wear_experiment import run_wear_study
from repro.qgj.fuzzer import FuzzConfig

FOCUS_PACKAGES = (
    GOOGLE_FIT_PACKAGE,
    HEART_RATE_PACKAGE,
    AMBIENT_BINDER_PACKAGE,
    "com.cardiowatch.wear",
    "com.runmate.wear",
)


@pytest.fixture(scope="module")
def focused_study():
    return run_wear_study(QUICK, packages=FOCUS_PACKAGES)


class TestFocusedWearStudy:
    def test_both_reboots_reproduced(self, focused_study):
        assert focused_study.reboot_count == 2
        campaigns = sorted(pm.campaign for pm in focused_study.collector.reboots)
        assert campaigns == ["A", "D"]
        packages = {pm.package for pm in focused_study.collector.reboots}
        assert packages == {HEART_RATE_PACKAGE, AMBIENT_BINDER_PACKAGE}

    def test_reboot_culprits_are_three_classes(self, focused_study):
        data = figures.fig3b_rootcause_by_manifestation(focused_study.collector)
        reboot_shares = data[Manifestation.REBOOT.label]
        assert set(reboot_shares) == {
            "android.os.DeadObjectException",
            "java.lang.NullPointerException",
            "java.lang.RuntimeException",
        }
        for share in reboot_shares.values():
            assert share == pytest.approx(1 / 3)

    def test_four_reboot_components(self, focused_study):
        counts = focused_study.collector.manifestation_counts()
        assert counts[Manifestation.REBOOT] == 4

    def test_google_fit_crashes_every_campaign(self, focused_study):
        for campaign in "ABCD":
            severity = focused_study.collector.app_campaign[
                (GOOGLE_FIT_PACKAGE, campaign)
            ]
            assert severity == Manifestation.CRASH, campaign

    def test_hang_app_hangs_in_a_c_d_only(self, focused_study):
        app = "com.cardiowatch.wear"
        expected = {
            "A": Manifestation.HANG,
            "B": Manifestation.NO_EFFECT,
            "C": Manifestation.HANG,
            "D": Manifestation.HANG,
        }
        for campaign, severity in expected.items():
            assert focused_study.collector.app_campaign[(app, campaign)] == severity

    def test_summary_counters_consistent(self, focused_study):
        summary = focused_study.summary
        assert summary.total_sent > 0
        assert summary.total_security_exceptions > 0
        assert summary.total_reboots == 2

    def test_virtual_time_advanced(self, focused_study):
        assert focused_study.virtual_hours() > 0.5

    def test_table3_structure(self, focused_study):
        data = tables.table3_behaviors(focused_study.collector)
        assert set(data) == {"A", "B", "C", "D"}


class TestFocusedPhoneStudy:
    @pytest.fixture(scope="class")
    def study(self):
        return run_phone_study(
            QUICK, packages=["com.android.chrome", "com.android.settings", "com.android.mms"]
        )

    def test_no_reboots_on_phone(self, study):
        assert not study.collector.reboots
        assert study.summary.total_reboots == 0

    def test_crashes_observed(self, study):
        crashed = study.collector.crashing_packages()
        assert crashed, "phone study subset should produce some crashes"

    def test_table4_rows(self, study):
        rows = tables.table4_phone_crashes(study.collector)
        assert rows
        total_share = sum(row["share"] for row in rows)
        assert total_share == pytest.approx(1.0)


class TestUiStudy:
    @pytest.fixture(scope="class")
    def study(self):
        config = ExperimentConfig(
            name="tiny", fuzz=FuzzConfig(), ui_events=2500, ui_seed=25
        )
        return run_ui_study(config)

    def test_table5_shape(self, study):
        semi = study.semi_valid
        rand = study.random
        assert semi.injected_events == rand.injected_events == 2500
        assert semi.exceptions_raised > rand.exceptions_raised
        assert rand.crashes == 0
        assert 0 <= semi.crash_rate() < 0.005

    def test_emulator_never_reboots(self, study):
        assert study.boot_count == 1

    def test_emulator_is_vendor_free(self, study):
        assert study.is_emulator
        assert study.vendor_packages == ()

    def test_semi_valid_exception_rate_in_band(self, study):
        # Paper: 3.6%; accept a band around it at reduced scale.
        assert 0.01 < study.semi_valid.exception_rate() < 0.08

    def test_random_exception_rate_below_semi_valid(self, study):
        assert study.random.exception_rate() < study.semi_valid.exception_rate()


class TestCampaignSeparationInvariant:
    """Campaign-specific defects must not leak across campaigns."""

    def test_campaign_b_only_app_quiet_elsewhere(self):
        study = run_wear_study(QUICK, packages=["com.motorola.omega.body"])
        collector = study.collector
        assert collector.app_campaign[("com.motorola.omega.body", "B")] == Manifestation.CRASH
        assert collector.app_campaign[("com.motorola.omega.body", "C")] == Manifestation.CRASH
        assert collector.app_campaign[("com.motorola.omega.body", "A")] == Manifestation.NO_EFFECT
        assert collector.app_campaign[("com.motorola.omega.body", "D")] == Manifestation.NO_EFFECT
