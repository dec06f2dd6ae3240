"""Property tests for FuzzIntent construction and the triage reproducers."""

import random
import shlex

import pytest
from hypothesis import given, settings, strategies as st

from repro.android.actions import ALL_ACTIONS, URI_SAMPLES
from repro.android.intent import ComponentName
from repro.qgj.campaigns import _RANDOM_CHARS, Campaign, FuzzIntent, generate, random_ascii
from repro.qgj.triage import CrashBucket, CrashSignature

CMP = ComponentName("com.a", "com.a.MainActivity")

maybe_action = st.one_of(st.none(), st.sampled_from(ALL_ACTIONS), st.text(min_size=1, max_size=20))
maybe_data = st.one_of(st.none(), st.sampled_from(sorted(URI_SAMPLES.values())), st.text(max_size=20))
#: ``(min_len, max_len)`` pairs with ``min_len <= max_len``.
length_bounds = st.integers(min_value=0, max_value=40).flatmap(
    lambda low: st.tuples(st.just(low), st.integers(min_value=low, max_value=low + 40))
)
extras = st.lists(
    st.tuples(st.text(min_size=1, max_size=8), st.one_of(st.text(max_size=8), st.integers(), st.none())),
    max_size=4,
).map(tuple)


class TestFuzzIntentBuild:
    @given(maybe_action, maybe_data, extras)
    @settings(max_examples=100, deadline=None)
    def test_build_reflects_fields(self, action, data, extra_items):
        fuzz_intent = FuzzIntent(action=action, data=data, extras=extra_items)
        intent = fuzz_intent.build(CMP)
        assert intent.component == CMP
        assert intent.action == action
        if data:
            assert intent.data_string == data
        else:
            assert intent.data is None
        assert len(intent.extras) <= len(extra_items)

    @given(st.sampled_from(list(Campaign)))
    @settings(max_examples=8, deadline=None)
    def test_generated_intents_always_buildable(self, campaign):
        for i, fuzz_intent in enumerate(generate(campaign, component=CMP, stride=7)):
            intent = fuzz_intent.build(CMP)
            assert intent.is_explicit()
            if i > 40:
                break

    def test_random_ascii_length_bounds(self):
        rng = random.Random(1)
        for _ in range(100):
            text = random_ascii(rng, min_len=3, max_len=24)
            assert 3 <= len(text) <= 24

    @given(st.text(max_size=16), length_bounds)
    @settings(max_examples=200, deadline=None)
    def test_random_ascii_draws_what_choice_draws(self, seed, bounds):
        # The reference is the one-``choice``-per-character form: the
        # inlined draws must give the same strings and leave the RNG in
        # the same state for every later draw.
        min_len, max_len = bounds
        ours, reference = random.Random(seed), random.Random(seed)
        for _ in range(3):
            length = reference.randint(min_len, max_len)
            expected = "".join(reference.choice(_RANDOM_CHARS) for _ in range(length))
            assert random_ascii(ours, min_len, max_len) == expected
        assert ours.getstate() == reference.getstate()


class TestReproducerLines:
    def _bucket(self, intent, component="com.a/com.a.MainActivity"):
        signature = CrashSignature(
            component=component,
            exception="java.lang.NullPointerException",
            frame="com.a.MainActivity.onCreate",
        )
        return CrashBucket(signature=signature, count=1, example=intent)

    def test_activity_reproducer_uses_am_start(self):
        line = self._bucket(FuzzIntent(action="a.X", data="tel:1")).reproducer()
        assert line.startswith("am start ")
        assert "-a a.X" in line and "-d tel:1" in line
        assert "-n com.a/com.a.MainActivity" in line

    def test_service_reproducer_uses_startservice(self):
        bucket = self._bucket(
            FuzzIntent(action="a.X", data=None),
            component="com.a/com.a.SyncService",
        )
        assert bucket.reproducer().startswith("am startservice ")

    def test_empty_bucket(self):
        bucket = self._bucket(None)
        assert "no example" in bucket.reproducer()

    @given(maybe_action, maybe_data)
    @settings(max_examples=60, deadline=None)
    def test_reproducer_is_single_line(self, action, data):
        line = self._bucket(FuzzIntent(action=action, data=data)).reproducer()
        assert "\n" not in line

    def test_minimized_takes_precedence(self):
        bucket = self._bucket(FuzzIntent(action="a.X", data="tel:1"))
        bucket.minimized = FuzzIntent(action="a.X", data=None)
        assert "-d" not in bucket.reproducer()

    def test_reproducer_round_trips_through_adb(self):
        """The emitted line is genuinely runnable against the simulator."""
        from repro.apps.catalog import build_wear_corpus
        from repro.apps.builtin import GOOGLE_FIT_PACKAGE
        from repro.qgj.triage import CrashProber
        from repro.wear.complications import ACTION_ALL_APP
        from repro.wear.device import WearDevice

        corpus = build_wear_corpus(seed=2018)
        watch = WearDevice("repro-watch")
        corpus.install(watch)
        package = watch.packages.get_package(GOOGLE_FIT_PACKAGE)
        info = next(
            c for c in package.components
            if c.name.simple_class == "ComplicationsAllAppActivity"
        )
        intent = FuzzIntent(action=ACTION_ALL_APP, data=None)
        signature = CrashProber(watch).signature_of(info, intent)
        bucket = CrashBucket(signature=signature, count=1, example=intent)
        result = watch.adb.shell(bucket.reproducer())
        assert result.caused_crash
