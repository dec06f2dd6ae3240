"""Tests for the two-part-app (companion) extension."""

import pytest

from repro.apps.catalog import build_wear_corpus
from repro.qgj.campaigns import Campaign
from repro.qgj.fuzzer import FuzzConfig
from repro.wear.companion import (
    REQUIRED_FIELDS,
    CompanionApp,
    WearSyncPublisher,
    companion_path,
    run_companion_study,
)
from repro.wear.device import PhoneDevice, WearDevice, pair


@pytest.fixture()
def rig():
    corpus = build_wear_corpus(seed=2018)
    watch = WearDevice("watch")
    phone = PhoneDevice("phone")
    pair(phone, watch)
    corpus.install(watch)
    return corpus, watch, phone


class TestPublisher:
    def test_healthy_publish_is_complete(self, rig):
        _, watch, phone = rig
        publisher = WearSyncPublisher(watch, "com.runmate.wear")
        snapshot = publisher.publish()
        assert all(snapshot.get(field) is not None for field in REQUIRED_FIELDS)
        item = phone.node.get_data_item(companion_path("com.runmate.wear"))
        assert item is not None
        assert item.data["sequence"] == 1

    def test_sequence_increments(self, rig):
        _, watch, _ = rig
        publisher = WearSyncPublisher(watch, "com.runmate.wear")
        publisher.publish()
        snapshot = publisher.publish()
        assert snapshot["sequence"] == 2

    def test_crash_truncates_next_snapshot(self, rig):
        _, watch, _ = rig
        publisher = WearSyncPublisher(watch, "com.motorola.omega.body")
        publisher.publish()
        # Crash the wear app with a campaign-B blank intent at its NPE
        # component (behaviour defined in the corpus).
        from repro.qgj.fuzzer import FuzzerLibrary

        fuzzer = FuzzerLibrary(watch)
        result = fuzzer.fuzz_app(
            "com.motorola.omega.body", Campaign.B, FuzzConfig(max_intents_per_component=20)
        )
        assert result.crashes_seen > 0
        snapshot = publisher.publish()
        assert snapshot.get("payload") is None or snapshot.get("status") is None

    def test_recovers_after_crash_cycle(self, rig):
        _, watch, _ = rig
        publisher = WearSyncPublisher(watch, "com.motorola.omega.body")
        from repro.qgj.fuzzer import FuzzerLibrary

        FuzzerLibrary(watch).fuzz_app(
            "com.motorola.omega.body", Campaign.B, FuzzConfig(max_intents_per_component=20)
        )
        publisher.publish()           # the truncated one
        snapshot = publisher.publish()  # healthy again
        assert all(snapshot.get(field) is not None for field in REQUIRED_FIELDS)


class TestCompanionApp:
    def test_robust_companion_rejects_partial_snapshot(self, rig):
        _, watch, phone = rig
        companion = CompanionApp(phone, "com.runmate.wear", robust=True)
        from repro.wear.node import DataClient

        DataClient(watch.node).put_data_item(
            companion_path("com.runmate.wear"), {"sequence": 1, "status": None}
        )
        assert companion.stats.malformed_received == 1
        assert companion.stats.handled_rejections == 1
        assert companion.stats.crashes == 0
        assert "rejected partial snapshot" in phone.adb.logcat()

    def test_fragile_companion_crashes_on_phone(self, rig):
        _, watch, phone = rig
        companion = CompanionApp(phone, "com.runmate.wear", robust=False)
        from repro.wear.node import DataClient

        DataClient(watch.node).put_data_item(
            companion_path("com.runmate.wear"), {"sequence": 1}
        )
        assert companion.stats.crashes == 1
        assert "FATAL EXCEPTION: main" in phone.adb.logcat()

    def test_well_formed_snapshot_is_quiet(self, rig):
        _, watch, phone = rig
        companion = CompanionApp(phone, "com.runmate.wear", robust=False)
        from repro.wear.node import DataClient

        DataClient(watch.node).put_data_item(
            companion_path("com.runmate.wear"),
            {"sequence": 1, "status": "ok", "payload": "steps=5"},
        )
        assert companion.stats.snapshots_received == 1
        assert companion.stats.crashes == 0


class TestCompanionStudy:
    def test_propagation_with_robust_companions(self, rig):
        _, watch, phone = rig
        result = run_companion_study(
            watch, phone, ["com.motorola.omega.body"], robust_companions=True
        )
        assert result.wear_crashes > 0
        assert result.malformed_snapshots > 0
        assert result.phone_crashes == 0
        assert 0 < result.propagation_rate <= 1.0

    def test_propagation_with_fragile_companions(self, rig):
        _, watch, phone = rig
        result = run_companion_study(
            watch, phone, ["com.motorola.omega.body"], robust_companions=False
        )
        # Watch-side crashes now kill the phone-side companion too: the
        # inter-device propagation the paper's future work asks about.
        assert result.phone_crashes > 0
        assert "FATAL EXCEPTION" in phone.adb.logcat()

    def test_quiet_app_propagates_nothing(self, rig):
        _, watch, phone = rig
        result = run_companion_study(
            watch, phone, ["com.cyclemate.wear"], robust_companions=False
        )
        assert result.wear_crashes == 0
        assert result.malformed_snapshots == 0
        assert result.propagation_rate == 0.0

    def test_unknown_package_rejected(self, rig):
        _, watch, phone = rig
        with pytest.raises(ValueError):
            run_companion_study(watch, phone, ["com.nope"])

    def test_render(self, rig):
        _, watch, phone = rig
        result = run_companion_study(watch, phone, ["com.motorola.omega.body"])
        text = result.render()
        assert "CROSS-DEVICE PROPAGATION STUDY" in text
        assert "propagation rate" in text
