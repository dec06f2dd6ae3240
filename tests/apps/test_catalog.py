"""Tests for the corpus builders and calibration profiles."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.apps.behavior import Outcome, Trigger
from repro.apps.builtin import (
    AMBIENT_BINDER_PACKAGE,
    GOOGLE_FIT_PACKAGE,
    MOTOROLA_BODY_PACKAGE,
)
from repro.apps.catalog import (
    build_phone_corpus,
    build_wear_corpus,
    emulator_packages,
    partition,
    _assign_quota_slots,
)
from repro.apps.health import GRID_PAGER_PACKAGE, HEART_RATE_PACKAGE
from repro.apps.profiles import (
    PHONE_CRASH_COMPONENTS,
    PHONE_POPULATION,
    WEAR_POPULATION,
    allocate_by_mix,
)
from repro.android.package_manager import AppCategory, AppOrigin


class TestAllocateByMix:
    def test_exact_total(self):
        counts = allocate_by_mix({"a": 0.5, "b": 0.3, "c": 0.2}, 10)
        assert sum(counts.values()) == 10
        assert counts["a"] >= counts["b"] >= counts["c"]

    def test_zero_total(self):
        counts = allocate_by_mix({"a": 1.0}, 0)
        assert sum(counts.values()) == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            allocate_by_mix({"a": 1.0}, -1)

    def test_unnormalised_weights(self):
        counts = allocate_by_mix({"a": 5, "b": 5}, 4)
        assert counts == {"a": 2, "b": 2}

    @given(
        st.dictionaries(
            st.text(min_size=1, max_size=5),
            st.floats(min_value=0.01, max_value=10),
            min_size=1,
            max_size=8,
        ),
        st.integers(min_value=0, max_value=500),
    )
    def test_total_always_exact(self, mix, total):
        assert sum(allocate_by_mix(mix, total).values()) == total


class TestPartition:
    def test_sums_exactly(self):
        rng = random.Random(1)
        parts = partition(100, 7, rng, minimum=3)
        assert sum(parts) == 100
        assert all(p >= 3 for p in parts)

    def test_minimum_violation_rejected(self):
        with pytest.raises(ValueError):
            partition(5, 3, random.Random(0), minimum=2)

    def test_zero_parts_rejected(self):
        with pytest.raises(ValueError):
            partition(5, 0, random.Random(0))


class TestQuotaSlots:
    def test_quota_exact_and_distinct_per_campaign(self):
        quota = {"A": 3, "B": 2}
        apps = ["p", "q", "r", "s"]
        slots = _assign_quota_slots(quota, apps, random.Random(3))
        for campaign, count in quota.items():
            members = [app for app, c in slots if c == campaign]
            assert len(members) == count
            assert len(set(members)) == count

    def test_every_app_gets_a_slot(self):
        slots = _assign_quota_slots({"A": 3, "B": 3}, ["p", "q", "r"], random.Random(0))
        assert {app for app, _ in slots} == {"p", "q", "r"}

    def test_overflow_quota_rejected(self):
        with pytest.raises(ValueError):
            _assign_quota_slots({"A": 5}, ["p", "q"], random.Random(0))


class TestWearCorpus:
    @pytest.fixture(scope="class")
    def corpus(self):
        return build_wear_corpus(seed=2018)

    def test_table2_population_exact(self, corpus):
        by_cell = {}
        for app in corpus.apps:
            key = (app.package.category.value, app.package.origin.value)
            cell = by_cell.setdefault(key, [0, 0, 0])
            cell[0] += 1
            cell[1] += len(app.package.activities())
            cell[2] += len(app.package.services())
        for key, expected in WEAR_POPULATION.items():
            assert by_cell[key] == [
                expected.apps,
                expected.activities,
                expected.services,
            ], key

    def test_deterministic_given_seed(self):
        a = build_wear_corpus(seed=7)
        b = build_wear_corpus(seed=7)
        assert [app.package.package for app in a.apps] == [
            app.package.package for app in b.apps
        ]
        assert [
            (c.name.flatten_to_string(), c.exported, c.behavior_key)
            for app in a.apps
            for c in app.package.components
        ] == [
            (c.name.flatten_to_string(), c.exported, c.behavior_key)
            for app in b.apps
            for c in app.package.components
        ]

    def test_different_seed_differs(self):
        a = build_wear_corpus(seed=7)
        b = build_wear_corpus(seed=8)
        layout = lambda corpus: [  # noqa: E731
            len(app.package.activities()) for app in corpus.apps
        ]
        assert layout(a) != layout(b)

    def test_named_apps_present_with_roles(self, corpus):
        assert corpus.app(HEART_RATE_PACKAGE).roles >= {"reboot_sensor"}
        assert corpus.app(AMBIENT_BINDER_PACKAGE).roles >= {"ambient_binder"}
        assert "hang" in corpus.app("com.cardiowatch.wear").roles
        assert corpus.app(GRID_PAGER_PACKAGE).crash_campaigns >= {"A"}
        assert corpus.app(GOOGLE_FIT_PACKAGE).crash_campaigns == {"A", "B", "C", "D"}
        assert corpus.app(MOTOROLA_BODY_PACKAGE).crash_campaigns == {"B", "C"}

    def test_motorola_is_vendor(self, corpus):
        assert corpus.app(MOTOROLA_BODY_PACKAGE).package.vendor

    def test_fig4_crash_app_targets(self, corpus):
        builtin_crashers = [
            app
            for app in corpus.apps
            if app.package.is_built_in
            and (app.crash_campaigns or "ambient_binder" in app.roles)
        ]
        third_crashers = [
            app
            for app in corpus.apps
            if not app.package.is_built_in and app.crash_campaigns
        ]
        assert len(builtin_crashers) == 7          # 64% of 11
        assert len(third_crashers) == 16           # 46% of 35

    def test_third_party_download_floor(self, corpus):
        for app in corpus.apps:
            if app.package.origin == AppOrigin.THIRD_PARTY:
                assert app.package.downloads >= 1_000_000

    def test_launchers_carry_no_generic_intent_defects(self, corpus):
        for app in corpus.apps:
            launcher = app.package.launcher_activity()
            if launcher is None or launcher.behavior_key is None:
                continue
            if launcher.behavior_key.startswith("gen."):
                spec = corpus.registry.get(launcher.behavior_key)
                crash_vulns = [
                    v for v in spec.vulnerabilities if v.outcome == Outcome.CRASH
                ]
                assert not crash_vulns, launcher.name

    def test_reboot_apps_have_no_generic_quirks(self, corpus):
        for package_name in (HEART_RATE_PACKAGE, AMBIENT_BINDER_PACKAGE):
            app = corpus.app(package_name)
            for component in app.package.components:
                key = component.behavior_key
                assert key is None or not key.startswith("gen."), component.name

    def test_hang_app_components(self, corpus):
        app = corpus.app("com.cardiowatch.wear")
        hang_specs = [
            corpus.registry.get(c.behavior_key)
            for c in app.package.components
            if c.behavior_key is not None
        ]
        hang_vulns = [
            v
            for spec in hang_specs
            for v in spec.vulnerabilities
            if v.outcome == Outcome.HANG
        ]
        assert len(hang_vulns) >= 5
        triggers = {v.trigger for v in hang_vulns}
        # Table III: health hangs appear in campaigns A, C and D, never B.
        assert Trigger.MISSING_ACTION not in triggers
        assert Trigger.MISSING_DATA not in triggers


class TestPhoneCorpus:
    @pytest.fixture(scope="class")
    def corpus(self):
        return build_phone_corpus(seed=711)

    def test_population(self, corpus):
        assert len(corpus.apps) == PHONE_POPULATION.apps
        activities, services = corpus.component_count()
        assert activities == PHONE_POPULATION.activities
        assert services == PHONE_POPULATION.services

    def test_all_built_in_com_android(self, corpus):
        for app in corpus.apps:
            assert app.package.package.startswith("com.android.")
            assert app.package.origin == AppOrigin.BUILT_IN

    def test_crash_component_quota(self, corpus):
        crash_components = 0
        for app in corpus.apps:
            for component in app.package.components:
                key = component.behavior_key
                if key is None:
                    continue
                spec = corpus.registry.get(key)
                if any(v.outcome == Outcome.CRASH for v in spec.vulnerabilities):
                    crash_components += 1
        assert crash_components == PHONE_CRASH_COMPONENTS


class TestEmulatorSelection:
    def test_excludes_vendor_and_caps_third_party(self):
        corpus = build_wear_corpus(seed=2018)
        selection = emulator_packages(corpus)
        assert all(not p.vendor for p in selection)
        third = [p for p in selection if not p.is_built_in]
        assert len(third) == 20
        downloads = [p.downloads for p in third]
        assert downloads == sorted(downloads, reverse=True)

    def test_launchers_gain_ui_quirks(self):
        corpus = build_wear_corpus(seed=2018)
        selection = emulator_packages(corpus)
        with_ui = 0
        for package in selection:
            launcher = package.launcher_activity()
            if launcher is None or launcher.behavior_key is None:
                continue
            spec = corpus.registry.get(launcher.behavior_key)
            if spec.ui_vulnerabilities:
                with_ui += 1
        assert with_ui >= 20

    def test_fragile_apps_are_third_party(self):
        corpus = build_wear_corpus(seed=2018)
        selection = emulator_packages(corpus)
        fragile = []
        for package in selection:
            launcher = package.launcher_activity()
            if launcher is None or launcher.behavior_key is None:
                continue
            spec = corpus.registry.get(launcher.behavior_key)
            if any(v.outcome == Outcome.CRASH for v in spec.ui_vulnerabilities):
                fragile.append(package)
        assert len(fragile) == 3
        assert all(not p.is_built_in for p in fragile)
