"""Tests for the fuzzer library and the QGJ Mobile/Wear protocol."""

import pytest

from repro.android.component import ComponentKind
from repro.apps.catalog import build_wear_corpus
from repro.qgj.campaigns import Campaign, generate
from repro.qgj.fuzzer import (
    QGJ_WEAR_PACKAGE,
    FuzzConfig,
    FuzzerLibrary,
)
from repro.qgj.master import deploy
from repro.wear.device import PhoneDevice, WearDevice, pair


@pytest.fixture(scope="module")
def corpus():
    return build_wear_corpus(seed=2018)


@pytest.fixture()
def watch(corpus):
    device = WearDevice("watch")
    # Corpora are reusable across devices; install a fresh device each test.
    fresh = build_wear_corpus(seed=2018)
    fresh.install(device)
    return device


class TestFuzzConfig:
    def test_defaults(self):
        config = FuzzConfig()
        assert config.stride_for(Campaign.A) == 1

    def test_per_campaign_override(self):
        config = FuzzConfig(stride=5, strides={Campaign.B: 1})
        assert config.stride_for(Campaign.B) == 1
        assert config.stride_for(Campaign.A) == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            FuzzConfig(stride=0)
        with pytest.raises(ValueError):
            FuzzConfig(strides={Campaign.A: 0})
        with pytest.raises(ValueError):
            FuzzConfig(max_intents_per_component=0)


class TestFuzzComponent:
    def test_counts_add_up(self, watch):
        info = watch.packages.get_package("com.runmate.wear").activities()[1]
        fuzzer = FuzzerLibrary(watch)
        result = fuzzer.fuzz_component(info, Campaign.B, FuzzConfig())
        assert result.sent == 141  # |Action| (129) + |URI types| (12)
        assert (
            result.delivered + result.security_exceptions + result.not_found
            == result.sent
        )

    def test_security_exceptions_counted(self, watch):
        info = watch.packages.get_package("com.runmate.wear").activities()[1]
        fuzzer = FuzzerLibrary(watch)
        result = fuzzer.fuzz_component(info, Campaign.B, FuzzConfig())
        # Protected actions are in campaign B's action list.
        assert result.security_exceptions > 30

    def test_max_intents_cap(self, watch):
        info = watch.packages.get_package("com.runmate.wear").activities()[1]
        fuzzer = FuzzerLibrary(watch)
        result = fuzzer.fuzz_component(
            info, Campaign.A, FuzzConfig(max_intents_per_component=10)
        )
        assert result.sent == 10

    def test_cap_pulls_only_what_it_sends(self, watch):
        info = watch.packages.get_package("com.runmate.wear").activities()[1]
        pulled = []

        def intents():
            for fuzz_intent in generate(Campaign.C, component=info.name):
                pulled.append(fuzz_intent)
                yield fuzz_intent

        result = FuzzerLibrary(watch).fuzz_component(
            info, Campaign.C, FuzzConfig(max_intents_per_component=1), intents=intents()
        )
        assert result.sent == len(pulled) == 1

    def test_pacing_advances_virtual_clock(self, watch):
        info = watch.packages.get_package("com.runmate.wear").activities()[1]
        fuzzer = FuzzerLibrary(watch)
        before = watch.clock.now_ms()
        result = fuzzer.fuzz_component(
            info, Campaign.B, FuzzConfig(max_intents_per_component=100)
        )
        elapsed = watch.clock.now_ms() - before
        # 100 intents x 100ms + one 250ms batch pause (+ handler costs).
        assert elapsed >= 100 * 100 + 250

    def test_not_exported_component_yields_security(self, watch):
        hidden = [
            c
            for c in watch.packages.all_components()
            if not c.exported
        ]
        assert hidden, "the corpus always contains not-exported components"
        fuzzer = FuzzerLibrary(watch)
        result = fuzzer.fuzz_component(
            hidden[0], Campaign.B, FuzzConfig(max_intents_per_component=5)
        )
        assert result.security_exceptions == result.sent


class TestFuzzApp:
    def test_covers_activities_and_services(self, watch):
        fuzzer = FuzzerLibrary(watch)
        result = fuzzer.fuzz_app(
            "com.runmate.wear", Campaign.B, FuzzConfig(max_intents_per_component=3)
        )
        package = watch.packages.get_package("com.runmate.wear")
        assert len(result.components) == len(package.components)
        kinds = {c.kind for c in result.components}
        assert kinds == {ComponentKind.ACTIVITY, ComponentKind.SERVICE}

    def test_unknown_package_rejected(self, watch):
        with pytest.raises(ValueError):
            FuzzerLibrary(watch).fuzz_app("com.nope", Campaign.A)

    def test_fuzz_device_excludes_qgj_itself(self, watch):
        fuzzer = FuzzerLibrary(watch)
        watch.packages.install(
            __import__("repro.qgj.master", fromlist=["_qgj_package"])._qgj_package(
                QGJ_WEAR_PACKAGE, "QGJ Wear"
            )
        )
        summary = fuzzer.fuzz_device(
            FuzzConfig(max_intents_per_component=1),
            campaigns=[Campaign.B],
            packages=None,
        )
        assert all(app.package != QGJ_WEAR_PACKAGE for app in summary.apps)

    def test_summary_render(self, watch):
        fuzzer = FuzzerLibrary(watch)
        summary = fuzzer.fuzz_device(
            FuzzConfig(max_intents_per_component=2),
            campaigns=[Campaign.B],
            packages=["com.runmate.wear"],
        )
        text = summary.render()
        assert "intents sent" in text
        assert summary.total_sent > 0

    def test_wire_format_round_trip(self, watch):
        import json

        fuzzer = FuzzerLibrary(watch)
        summary = fuzzer.fuzz_device(
            FuzzConfig(max_intents_per_component=2),
            campaigns=[Campaign.B],
            packages=["com.runmate.wear"],
        )
        wire = summary.to_wire()
        assert json.loads(json.dumps(wire)) == wire


class TestMasterProtocol:
    @pytest.fixture()
    def deployed(self):
        corpus = build_wear_corpus(seed=2018)
        watch = WearDevice("watch")
        phone = PhoneDevice("phone")
        pair(phone, watch)
        corpus.install(watch)
        mobile, wear = deploy(phone, watch)
        return phone, watch, mobile, wear

    def test_component_inventory(self, deployed):
        _, watch, mobile, _ = deployed
        mobile.refresh_components()
        # 912 corpus components; QGJ's own packages are filtered out.
        assert len(mobile.component_listing) == 912
        assert "com.pulsetrack.wear" in mobile.packages_on_watch()

    def test_fuzz_round_trip(self, deployed):
        _, watch, mobile, wear = deployed
        mobile.refresh_components()
        summary = mobile.start_fuzz(
            ["com.runmate.wear"],
            campaigns="B",
            config=FuzzConfig(max_intents_per_component=2),
        )
        assert summary["total_sent"] > 0
        assert "QGJ run against watch" in mobile.render_summary()
        assert wear.last_summary is not None

    def test_disconnected_link_raises(self, deployed):
        phone, watch, mobile, _ = deployed
        phone.node.link.disconnect()
        with pytest.raises(ConnectionError):
            mobile.refresh_components()

    def test_qgj_apps_installed(self, deployed):
        phone, watch, _, _ = deployed
        assert watch.packages.is_installed("com.qgj.wear")
        assert phone.packages.is_installed("com.qgj.mobile")

    def test_stale_summary_not_returned_when_run_fails_to_report(self, deployed):
        """A run that never reports must raise, not echo the previous summary.

        Regression: ``start_fuzz`` used to leave ``last_summary`` from the
        prior run in place, so a silent wearable-side failure returned stale
        results as if they were fresh.
        """
        _, watch, mobile, wear = deployed
        config = FuzzConfig(max_intents_per_component=2)
        first = mobile.start_fuzz(["com.runmate.wear"], campaigns="B", config=config)
        assert first["total_sent"] > 0
        # The wearable stops shipping summaries back over the DataAPI.
        wear._data_client.put_data_item = lambda path, data: None
        with pytest.raises(RuntimeError, match="no summary received"):
            mobile.start_fuzz(["com.runmate.wear"], campaigns="B", config=config)
        assert mobile.last_summary is None
