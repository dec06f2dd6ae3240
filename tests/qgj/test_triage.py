"""Tests for crash triage, bucketing, and intent minimisation."""

import pytest

from repro.apps.catalog import build_wear_corpus
from repro.apps.builtin import GOOGLE_FIT_PACKAGE
from repro.qgj.campaigns import Campaign, FuzzIntent
from repro.qgj.fuzzer import FuzzConfig
from repro.qgj.triage import (
    CrashProber,
    minimize_intent,
    triage_app,
)
from repro.wear.complications import ACTION_ALL_APP
from repro.wear.device import WearDevice


@pytest.fixture()
def watch():
    corpus = build_wear_corpus(seed=2018)
    device = WearDevice("triage-watch")
    corpus.install(device)
    return device


def fit_allapp_info(watch):
    package = watch.packages.get_package(GOOGLE_FIT_PACKAGE)
    return next(
        c for c in package.components
        if c.name.simple_class == "ComplicationsAllAppActivity"
    )


class TestProber:
    def test_crashing_intent_yields_signature(self, watch):
        info = fit_allapp_info(watch)
        signature = CrashProber(watch).signature_of(
            info, FuzzIntent(action=ACTION_ALL_APP, data=None)
        )
        assert signature is not None
        assert signature.exception == "java.lang.IllegalArgumentException"
        assert signature.component == info.name.flatten_to_string()

    def test_benign_intent_yields_none(self, watch):
        info = fit_allapp_info(watch)
        signature = CrashProber(watch).signature_of(
            info, FuzzIntent(action="android.intent.action.VIEW", data=None)
        )
        assert signature is None

    def test_probe_leaves_no_residue(self, watch):
        info = fit_allapp_info(watch)
        prober = CrashProber(watch)
        for _ in range(6):  # would crash-loop if state leaked
            prober.signature_of(info, FuzzIntent(action=ACTION_ALL_APP, data=None))
        assert watch.boot_count == 1
        assert watch.system_server.aging.score() == 0.0
        assert watch.processes.get(GOOGLE_FIT_PACKAGE) is None

    def test_security_blocked_probe_is_none(self, watch):
        info = fit_allapp_info(watch)
        signature = CrashProber(watch).signature_of(
            info, FuzzIntent(action="android.intent.action.BATTERY_LOW", data=None)
        )
        assert signature is None

    def test_signatures_are_stable(self, watch):
        info = fit_allapp_info(watch)
        prober = CrashProber(watch)
        a = prober.signature_of(info, FuzzIntent(action=ACTION_ALL_APP, data=None))
        b = prober.signature_of(info, FuzzIntent(action=ACTION_ALL_APP, data="tel:123"))
        assert a == b  # same defect, different triggering intents


class TestMinimisation:
    def test_strips_irrelevant_fields(self, watch):
        info = fit_allapp_info(watch)
        prober = CrashProber(watch)
        noisy = FuzzIntent(
            action=ACTION_ALL_APP,
            data="https://foo.com/",
            extras=(("extra_0", 42), ("extra_1", "junk")),
        )
        signature = prober.signature_of(info, noisy)
        assert signature is not None
        minimal = minimize_intent(prober, info, noisy, signature)
        # The defect needs only the action; everything else is noise.
        assert minimal.action == ACTION_ALL_APP
        assert minimal.data is None
        assert minimal.extras == ()
        # And the minimal intent still reproduces.
        assert prober.signature_of(info, minimal) == signature

    def test_keeps_fields_the_crash_needs(self, watch):
        # Motorola Body's NPE defect triggers on MISSING_DATA: the *absence*
        # of data is essential, so minimisation must not add anything and
        # must keep the action (dropping it changes the trigger).
        package = watch.packages.get_package("com.motorola.omega.body")
        corpus_info = next(
            c
            for c in package.components
            if c.behavior_key and c.behavior_key.startswith("gen.")
        )
        prober = CrashProber(watch)
        intent = FuzzIntent(action="android.intent.action.VIEW", data=None)
        signature = prober.signature_of(corpus_info, intent)
        if signature is None:
            pytest.skip("seeded defect on this component is not MISSING_DATA")
        minimal = minimize_intent(prober, corpus_info, intent, signature)
        assert prober.signature_of(corpus_info, minimal) == signature


class TestTriageApp:
    def test_buckets_deduplicate(self, watch):
        report = triage_app(
            watch,
            GOOGLE_FIT_PACKAGE,
            campaigns=(Campaign.B,),
            config=FuzzConfig(strides={Campaign.B: 1}),
        )
        assert report.intents_probed > 0
        # Campaign B hits the ALL_APP defect through one signature bucket.
        fit_buckets = [
            b for b in report.buckets if "ComplicationsAllApp" in b.signature.component
        ]
        assert len(fit_buckets) == 1
        assert fit_buckets[0].count >= 1

    def test_minimized_reproducer_rendered(self, watch):
        report = triage_app(
            watch,
            GOOGLE_FIT_PACKAGE,
            campaigns=(Campaign.D,),
            config=FuzzConfig(strides={Campaign.D: 1}),
        )
        text = report.render()
        assert "CRASH TRIAGE" in text
        assert "repro: am start" in text
        bucket = next(
            b for b in report.buckets if "ComplicationsAllApp" in b.signature.component
        )
        # Campaign D found it with data+extras; minimisation strips both.
        assert bucket.minimized is not None
        assert bucket.minimized.extras == ()

    def test_unknown_package_rejected(self, watch):
        with pytest.raises(ValueError):
            triage_app(watch, "com.nope")

    def test_triage_never_reboots_the_device(self, watch):
        # Even the reboot-scenario app is safe to triage: probes reset the
        # aging state, so the escalation never fires.
        from repro.apps.builtin import AMBIENT_BINDER_PACKAGE

        report = triage_app(
            watch,
            AMBIENT_BINDER_PACKAGE,
            campaigns=(Campaign.D,),
            config=FuzzConfig(strides={Campaign.D: 2}),
            minimize=False,
        )
        assert watch.boot_count == 1
        assert any(
            "SettingsActivity" in b.signature.component for b in report.buckets
        )
