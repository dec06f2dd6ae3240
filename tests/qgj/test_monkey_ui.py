"""Tests for the Monkey event generator and QGJ-UI."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.catalog import build_wear_corpus, emulator_packages
from repro.experiments.config import QUICK
from repro.experiments.ui_experiment import run_ui_study
from repro.qgj.monkey import (
    EVENT_KINDS,
    Monkey,
    MonkeyEvent,
    format_event,
    parse_monkey_log,
)
from repro.qgj.ui_fuzzer import (
    EventMutator,
    MutationMode,
    QGJUi,
    event_to_shell,
    render_table5,
)
from repro.wear.device import WearDevice


@pytest.fixture()
def emulator():
    corpus = build_wear_corpus(seed=2018)
    device = WearDevice("emu", is_emulator=True)
    selection = emulator_packages(corpus)
    corpus.registry.install(device.activity_manager)
    from repro.apps.builtin import google_fit_spec_key
    from repro.apps.health import register_health_factories

    register_health_factories(device.activity_manager)
    google_fit_spec_key(corpus.registry, device.activity_manager)
    for package in selection:
        device.install(package)
    return device


class TestMonkey:
    def test_generates_requested_count(self, emulator):
        events = Monkey(emulator, seed=1).generate(500)
        assert len(events) == 500

    def test_equal_percentages_cover_all_kinds(self, emulator):
        events = Monkey(emulator, seed=1).generate(2000)
        counts = {kind: 0 for kind in EVENT_KINDS}
        for event in events:
            counts[event.kind] += 1
        for kind, count in counts.items():
            assert count > 100, f"{kind} underrepresented: {count}"

    def test_custom_percentages(self, emulator):
        events = Monkey(emulator, seed=1, percentages={"touch": 1.0}).generate(50)
        assert all(event.kind == "touch" for event in events)

    def test_unknown_kind_rejected(self, emulator):
        with pytest.raises(ValueError):
            Monkey(emulator, percentages={"frobnicate": 1.0})

    def test_negative_count_rejected(self, emulator):
        with pytest.raises(ValueError):
            Monkey(emulator).generate(-1)

    def test_touches_are_on_screen(self, emulator):
        events = Monkey(emulator, seed=1).generate(1000)
        for event in events:
            if event.kind == "touch":
                assert 0 <= event.args["x"] < emulator.screen_width
                assert 0 <= event.args["y"] < emulator.screen_height

    def test_appswitch_uses_installed_launchers(self, emulator):
        launchers = {
            c.name.flatten_to_short_string()
            for c in emulator.packages.launcher_activities()
        }
        events = Monkey(emulator, seed=1).generate(1000)
        for event in events:
            if event.kind == "appswitch":
                assert event.args["component"] in launchers

    def test_deterministic(self, emulator):
        a = Monkey(emulator, seed=9).generate(100)
        b = Monkey(emulator, seed=9).generate(100)
        assert [e.args for e in a] == [e.args for e in b]

    def test_log_round_trip(self, emulator):
        monkey = Monkey(emulator, seed=4)
        events = monkey.generate(300)
        text = "\n".join(format_event(e) for e in events)
        parsed = parse_monkey_log(text)
        assert len(parsed) == len(events)
        for original, recovered in zip(events, parsed):
            assert recovered.kind == original.kind
            assert recovered.args == original.args

    def test_run_produces_parseable_log_with_banner(self, emulator):
        text = Monkey(emulator, seed=4).run(50)
        assert text.startswith(":Monkey:")
        assert "// Monkey finished" in text
        assert len(parse_monkey_log(text)) == 50

    def test_parser_skips_garbage(self):
        garbage = "random noise\n:NotAnEvent: x\n\n:Sending Touch (ACTION_DOWN): 0:(1.0,2.0)"
        events = parse_monkey_log(garbage)
        assert len(events) == 1
        assert events[0].kind == "touch"

    @given(st.text(max_size=400))
    @settings(max_examples=50, deadline=None)
    def test_parser_total_on_arbitrary_text(self, text):
        parse_monkey_log(text)  # must never raise


class TestEventToShell:
    def test_all_kinds_lower(self):
        samples = {
            "touch": {"x": 1.0, "y": 2.0},
            "swipe": {"x1": 0.0, "y1": 0.0, "x2": 5.0, "y2": 5.0},
            "trackball": {"dx": 1.0, "dy": -1.0},
            "keyevent_nav": {"code": 4},
            "keyevent_sys": {"code": 3},
            "text": {"text": "hi"},
            "appswitch": {"component": "com.a/.Main"},
            "permission": {"package": "com.a", "permission": "android.permission.VIBRATE"},
        }
        for kind, args in samples.items():
            line = event_to_shell(MonkeyEvent(kind, args))
            assert line.split()[0] in ("input", "am", "pm")

    def test_paper_example_random_tap(self):
        line = event_to_shell(MonkeyEvent("touch", {"x": -8803.85, "y": 4668.17}))
        assert line == "input tap -8803.85 4668.17"


class TestMutator:
    def _events(self, emulator, n=400):
        return Monkey(emulator, seed=2).generate(n)

    def test_semi_valid_swaps_within_observed_pool(self, emulator):
        events = self._events(emulator)
        mutator = EventMutator(events, seed=1)
        observed_x = {e.args["x"] for e in events if e.kind == "touch"}
        for event in events:
            if event.kind != "touch":
                continue
            mutant = mutator.mutate(event, MutationMode.SEMI_VALID)
            assert mutant.args["x"] in observed_x
            assert mutant.args["y"] in {e.args["y"] for e in events if e.kind == "touch"}

    def test_random_respects_slot_types(self, emulator):
        events = self._events(emulator)
        mutator = EventMutator(events, seed=1)
        for event in events[:100]:
            mutant = mutator.mutate(event, MutationMode.RANDOM)
            for slot, slot_type in event.schema():
                assert isinstance(mutant.args[slot], slot_type), (event.kind, slot)

    def test_mutation_does_not_alias_original(self, emulator):
        events = self._events(emulator, 10)
        mutator = EventMutator(events, seed=1)
        original = dict(events[0].args)
        mutator.mutate(events[0], MutationMode.RANDOM)
        assert events[0].args == original

    def test_unknown_mode_rejected(self, emulator):
        events = self._events(emulator, 5)
        with pytest.raises(ValueError):
            EventMutator(events).mutate(events[0], "weird")


class TestQGJUi:
    def test_small_run_shapes(self, emulator):
        results = QGJUi(emulator, seed=3).run(1200)
        semi = results[MutationMode.SEMI_VALID]
        rand = results[MutationMode.RANDOM]
        assert semi.injected_events == rand.injected_events == 1200
        # Table V's shape: semi-valid raises clearly more exceptions;
        # random injections never crash anything.
        assert semi.exceptions_raised > rand.exceptions_raised
        assert rand.crashes == 0
        assert semi.crash_rate() < 0.01  # well under 1%

    def test_no_reboot_during_ui_fuzzing(self, emulator):
        QGJUi(emulator, seed=3).run(800)
        assert emulator.boot_count == 1

    def test_render_table5(self, emulator):
        results = QGJUi(emulator, seed=3).run(300)
        text = render_table5(results)
        assert "semi-valid" in text and "random" in text

    def test_app_exceptions_counted_on_a_full_ring(self):
        """At quick scale the semi-valid replay logs ~800 records and the
        random one ~80.  With a 200-record ring, the ring is full when the
        random replay starts and evicts as it logs, yet keeps every record
        that replay appends: its count must match the unbounded ring's.
        The semi-valid replay outgrows the ring, and what was evicted
        cannot be counted."""
        clean = run_ui_study(QUICK).results
        capped = run_ui_study(dataclasses.replace(QUICK, logcat_capacity=200)).results
        rand, semi = MutationMode.RANDOM, MutationMode.SEMI_VALID
        assert capped[rand].app_exceptions == clean[rand].app_exceptions > 0
        assert 0 < capped[semi].app_exceptions < clean[semi].app_exceptions
