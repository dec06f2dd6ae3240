"""Tests for the input-validation behaviour models."""

import pytest
from hypothesis import given, strategies as st

from repro.android.component import ComponentInfo, ComponentKind
from repro.android.device import Device
from repro.android.context import Context
from repro.android.intent import ComponentName, Intent
from repro.android.jtypes import (
    NullPointerException,
    RuntimeException,
)
from repro.apps.behavior import (
    BLOCK_MS,
    BehaviorRegistry,
    BehaviorSpec,
    ModeledActivity,
    ModeledService,
    Outcome,
    Trigger,
    UiVulnerability,
    Vulnerability,
    stable_fraction,
    trigger_matches,
)


def info(kind=ComponentKind.ACTIVITY, name="com.a/com.a.Main"):
    return ComponentInfo(name=ComponentName.parse(name), kind=kind)


class TestTriggers:
    def test_mismatch_requires_both_valid(self):
        mismatch = Intent("android.intent.action.DIAL", data="https://foo.com/")
        assert trigger_matches(Trigger.ACTION_DATA_MISMATCH, mismatch, 0)

    def test_compatible_pair_is_not_mismatch(self):
        ok = Intent("android.intent.action.DIAL", data="tel:123")
        assert not trigger_matches(Trigger.ACTION_DATA_MISMATCH, ok, 0)

    def test_unknown_action_is_not_mismatch(self):
        garbage = Intent("S0me.r@ndom", data="tel:123")
        assert not trigger_matches(Trigger.ACTION_DATA_MISMATCH, garbage, 0)
        assert trigger_matches(Trigger.UNKNOWN_ACTION, garbage, 0)

    def test_missing_action(self):
        assert trigger_matches(Trigger.MISSING_ACTION, Intent(data="tel:1"), 0)
        assert not trigger_matches(Trigger.MISSING_ACTION, Intent("a", data="tel:1"), 0)

    def test_missing_data_excludes_extras(self):
        bare = Intent("android.intent.action.VIEW")
        assert trigger_matches(Trigger.MISSING_DATA, bare, 0)
        with_extras = Intent("android.intent.action.VIEW").put_extra("k", "v")
        assert not trigger_matches(Trigger.MISSING_DATA, with_extras, 0)

    def test_malformed_data(self):
        assert trigger_matches(
            Trigger.MALFORMED_DATA, Intent("a", data="just garbage"), 0
        )
        assert not trigger_matches(
            Trigger.MALFORMED_DATA, Intent("a", data="https://x/"), 0
        )

    def test_unexpected_extras(self):
        assert trigger_matches(
            Trigger.UNEXPECTED_EXTRAS, Intent("a").put_extra("k", "v"), 0
        )
        assert not trigger_matches(Trigger.UNEXPECTED_EXTRAS, Intent("a"), 0)

    def test_extra_type_confusion_needs_non_string(self):
        assert trigger_matches(
            Trigger.EXTRA_TYPE_CONFUSION, Intent("a").put_extra("k", 3), 0
        )
        assert not trigger_matches(
            Trigger.EXTRA_TYPE_CONFUSION, Intent("a").put_extra("k", "s"), 0
        )

    def test_any_intent(self):
        assert trigger_matches(Trigger.ANY_INTENT, Intent(), 0)


class TestStableFraction:
    def test_deterministic(self):
        assert stable_fraction("a", 1) == stable_fraction("a", 1)

    def test_range(self):
        for i in range(50):
            assert 0.0 <= stable_fraction("x", i) < 1.0

    @given(st.text(max_size=30), st.integers())
    def test_always_in_range(self, text, number):
        assert 0.0 <= stable_fraction(text, number) < 1.0


class TestVulnerability:
    def test_fires_and_builds(self):
        vuln = Vulnerability(
            trigger=Trigger.MISSING_DATA,
            exception="java.lang.NullPointerException",
            outcome=Outcome.CRASH,
            message="null uri",
        )
        i = info()
        assert vuln.fires_on(i, Intent("a"), 0)
        exc = vuln.build_throwable(i)
        assert isinstance(exc, NullPointerException)
        assert exc.frames[0].class_name == "com.a.Main"

    def test_min_deliveries_gate(self):
        vuln = Vulnerability(
            trigger=Trigger.ANY_INTENT,
            exception="java.lang.IllegalStateException",
            outcome=Outcome.CRASH,
            min_deliveries=3,
        )
        i = info()
        assert not vuln.fires_on(i, Intent(), 2)
        assert vuln.fires_on(i, Intent(), 3)

    def test_fire_fraction_gates_deterministically(self):
        vuln = Vulnerability(
            trigger=Trigger.ANY_INTENT,
            exception="java.lang.NullPointerException",
            outcome=Outcome.CRASH,
            fire_fraction=0.5,
        )
        i = info()
        intents = [Intent(f"action.{n}") for n in range(200)]
        fired = [vuln.fires_on(i, intent, 0) for intent in intents]
        again = [vuln.fires_on(i, intent, 0) for intent in intents]
        assert fired == again
        assert 40 < sum(fired) < 160  # roughly half

    def test_runtime_wrapper(self):
        vuln = Vulnerability(
            trigger=Trigger.ANY_INTENT,
            exception="java.lang.NullPointerException",
            outcome=Outcome.CRASH,
            wrap_in_runtime=True,
        )
        exc = vuln.build_throwable(info())
        assert isinstance(exc, RuntimeException)
        assert isinstance(exc.cause, NullPointerException)
        assert "Unable to start activity" in exc.message


@pytest.fixture
def device():
    return Device("test")


def make_activity(device, spec, name="com.a/com.a.Main"):
    return ModeledActivity(info(name=name), Context("com.a", device), spec)


class TestModeledComponents:
    def test_crash_outcome_raises(self, device):
        spec = BehaviorSpec(
            vulnerabilities=[
                Vulnerability(
                    trigger=Trigger.MISSING_DATA,
                    exception="java.lang.NullPointerException",
                    outcome=Outcome.CRASH,
                )
            ]
        )
        activity = make_activity(device, spec)
        with pytest.raises(NullPointerException):
            activity.on_handle_intent(Intent("a"), "onCreate")

    def test_hang_outcome_returns_block_and_logs(self, device):
        spec = BehaviorSpec(
            vulnerabilities=[
                Vulnerability(
                    trigger=Trigger.ANY_INTENT,
                    exception="java.lang.IllegalStateException",
                    outcome=Outcome.HANG,
                )
            ]
        )
        activity = make_activity(device, spec)
        cost = activity.on_handle_intent(Intent("a"), "onCreate")
        assert cost == BLOCK_MS
        assert "IllegalStateException" in device.logcat.dump()

    def test_handled_outcome_logs_and_continues(self, device):
        spec = BehaviorSpec(
            vulnerabilities=[
                Vulnerability(
                    trigger=Trigger.ANY_INTENT,
                    exception="java.lang.IllegalArgumentException",
                    outcome=Outcome.HANDLED,
                )
            ]
        )
        activity = make_activity(device, spec)
        cost = activity.on_handle_intent(Intent("a"), "onCreate")
        assert cost == spec.base_cost_ms
        assert "rejected intent" in device.logcat.dump()

    def test_clean_intent_no_effect(self, device):
        spec = BehaviorSpec(
            vulnerabilities=[
                Vulnerability(
                    trigger=Trigger.MISSING_DATA,
                    exception="java.lang.NullPointerException",
                    outcome=Outcome.CRASH,
                )
            ]
        )
        activity = make_activity(device, spec)
        cost = activity.on_handle_intent(
            Intent("android.intent.action.VIEW", data="https://x/"), "onCreate"
        )
        assert cost == spec.base_cost_ms

    def test_first_matching_vulnerability_wins(self, device):
        spec = BehaviorSpec(
            vulnerabilities=[
                Vulnerability(
                    trigger=Trigger.ANY_INTENT,
                    exception="java.lang.IllegalArgumentException",
                    outcome=Outcome.HANDLED,
                ),
                Vulnerability(
                    trigger=Trigger.ANY_INTENT,
                    exception="java.lang.NullPointerException",
                    outcome=Outcome.CRASH,
                ),
            ]
        )
        activity = make_activity(device, spec)
        # HANDLED is first; the crash never happens.
        assert activity.on_handle_intent(Intent("a"), "x") == spec.base_cost_ms

    def test_delivery_counter_increments(self, device):
        spec = BehaviorSpec(
            vulnerabilities=[
                Vulnerability(
                    trigger=Trigger.ANY_INTENT,
                    exception="java.lang.IllegalStateException",
                    outcome=Outcome.CRASH,
                    min_deliveries=3,
                )
            ]
        )
        activity = make_activity(device, spec)
        activity.on_handle_intent(Intent(), "x")
        activity.on_handle_intent(Intent(), "x")
        with pytest.raises(Exception):
            activity.on_handle_intent(Intent(), "x")

    def test_service_model(self, device):
        spec = BehaviorSpec(
            vulnerabilities=[
                Vulnerability(
                    trigger=Trigger.MISSING_ACTION,
                    exception="java.lang.NullPointerException",
                    outcome=Outcome.CRASH,
                )
            ]
        )
        service = ModeledService(
            info(kind=ComponentKind.SERVICE, name="com.a/com.a.Svc"),
            Context("com.a", device),
            spec,
        )
        with pytest.raises(NullPointerException):
            service.on_handle_intent(Intent(data="tel:1"), "onStartCommand")

    def test_ui_vulnerability_handled(self, device):
        spec = BehaviorSpec(
            ui_vulnerabilities=[
                UiVulnerability(
                    kinds=("tap",),
                    exception="java.lang.IllegalArgumentException",
                    outcome=Outcome.HANDLED,
                    fire_fraction=1.0,
                )
            ]
        )
        activity = make_activity(device, spec)
        assert activity.on_ui_event("tap", x=1, y=2) == spec.base_cost_ms
        assert "rejected ui event tap" in device.logcat.dump()

    def test_ui_vulnerability_crash(self, device):
        spec = BehaviorSpec(
            ui_vulnerabilities=[
                UiVulnerability(
                    kinds=("tap",),
                    exception="java.lang.NullPointerException",
                    outcome=Outcome.CRASH,
                    fire_fraction=1.0,
                )
            ]
        )
        activity = make_activity(device, spec)
        with pytest.raises(NullPointerException):
            activity.on_ui_event("tap", x=1, y=2)

    def test_ui_vulnerability_kind_filter(self, device):
        spec = BehaviorSpec(
            ui_vulnerabilities=[
                UiVulnerability(
                    kinds=("tap",),
                    exception="java.lang.NullPointerException",
                    outcome=Outcome.CRASH,
                    fire_fraction=1.0,
                )
            ]
        )
        activity = make_activity(device, spec)
        assert activity.on_ui_event("text", text="hi") == 0.5  # no crash


class TestBehaviorRegistry:
    def test_register_and_install(self, device):
        registry = BehaviorRegistry()
        key = registry.register("k", BehaviorSpec())
        assert key == "k"
        assert len(registry) == 1
        registry.install(device.activity_manager)
        factory = device.activity_manager._factories["k"]
        component = factory(info(), Context("com.a", device))
        assert isinstance(component, ModeledActivity)

    def test_factories_are_built_once_and_rebuilt_after_register(self, device):
        registry = BehaviorRegistry()
        registry.register("k", BehaviorSpec())
        other = Device("other")
        registry.install(device.activity_manager)
        registry.install(other.activity_manager)
        shared = device.activity_manager._factories["k"]
        assert other.activity_manager._factories["k"] is shared
        registry.register("j", BehaviorSpec())
        registry.install(other.activity_manager)
        assert set(other.activity_manager._factories) >= {"k", "j"}

    def test_duplicate_key_rejected(self):
        registry = BehaviorRegistry()
        registry.register("k", BehaviorSpec())
        with pytest.raises(ValueError):
            registry.register("k", BehaviorSpec())

    def test_factory_respects_kind(self, device):
        registry = BehaviorRegistry()
        registry.register("k", BehaviorSpec())
        registry.install(device.activity_manager)
        factory = device.activity_manager._factories["k"]
        service = factory(
            info(kind=ComponentKind.SERVICE, name="com.a/com.a.S"),
            Context("com.a", device),
        )
        assert isinstance(service, ModeledService)
