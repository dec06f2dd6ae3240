"""End-to-end tests for the OS-service fault family.

Outage windows, corrupted replies, and system_server restarts ride the same
seeded fault plane as the transport family; these tests drive them through
the real android hook sites (activity manager dispatch, package manager
resolution, sensor registration) with pinned one-shot events.
"""

import pytest

from repro import faults
from repro.android.component import ComponentInfo, ComponentKind
from repro.android.device import Device
from repro.android.intent import ComponentName, Intent, launcher_filter
from repro.android.jtypes import DeadObjectException
from repro.android.package_manager import AppCategory, AppOrigin, PackageInfo
from repro.android.sensor import TYPE_HEART_RATE
from repro.faults.errors import (
    TRANSIENT_ERRORS,
    CompatMismatchError,
    ServiceRestarted,
    ServiceUnavailable,
    StaleBinderReply,
)
from repro.faults.plan import (
    CHAOS_INTERVALS_MS,
    CORRUPT_DROP_LISTENER,
    CORRUPT_DUP_LISTENER,
    CORRUPT_STALE_COMPONENT,
    SERVICE_OUTAGE_WINDOW_MS,
    FaultEvent,
    FaultKind,
    FaultPlan,
)

PKG = "com.example.app"


@pytest.fixture(autouse=True)
def _no_leaked_plane():
    yield
    faults.uninstall()


def _device():
    dev = Device("watch")
    main = ComponentInfo(
        name=ComponentName(PKG, f"{PKG}.MainActivity"),
        kind=ComponentKind.ACTIVITY,
        intent_filters=[launcher_filter()],
    )
    dev.install(
        PackageInfo(
            package=PKG,
            label="Example",
            category=AppCategory.OTHER,
            origin=AppOrigin.THIRD_PARTY,
            components=[main],
        )
    )
    return dev


def _intent():
    return Intent(component=ComponentName(PKG, f"{PKG}.MainActivity"))


def _oneshot_plan(kind, at_ms=5.0, param=""):
    return FaultPlan(seed=0, oneshots=(FaultEvent(at_ms, kind, param),))


class TestServiceFaultPlanProfile:
    def test_standalone_plan_arms_only_the_service_streams(self):
        plan = faults.compose_plan(service_fault_seed=4)
        armed = {kind for kind in FaultKind if plan.interval_for(kind) is not None}
        assert armed == {
            FaultKind.SERVICE_OUTAGE,
            FaultKind.SERVICE_CORRUPT,
            FaultKind.SYSTEM_RESTART,
        }
        for kind in armed:
            assert plan.interval_for(kind) == CHAOS_INTERVALS_MS[kind]
        assert plan.seed == 4

    def test_apply_layers_onto_a_transport_plan(self):
        # The chaos base already arms the service streams at these rates,
        # so the service seed changes nothing: the base keeps its seed.
        base = faults.compose_plan(fault_seed=7)
        assert base == FaultPlan.chaos(seed=7)
        assert faults.compose_plan(fault_seed=7, service_fault_seed=5) == base
        assert faults.compose_plan(fault_seed=7, service_fault_seed=99) == base


class TestServiceOutage:
    def test_activity_outage_opens_then_closes(self):
        device = _device()
        plan = _oneshot_plan(FaultKind.SERVICE_OUTAGE, param="activity")
        with faults.session(plan):
            device.clock.sleep(10.0)
            with pytest.raises(ServiceUnavailable, match="activity"):
                device.activity_manager.start_activity(PKG, _intent())
            # Still inside the window: the service stays down.
            with pytest.raises(ServiceUnavailable):
                device.activity_manager.start_activity(PKG, _intent())
            device.clock.sleep(SERVICE_OUTAGE_WINDOW_MS + 10.0)
            result = device.activity_manager.start_activity(PKG, _intent())
            assert result.delivered

    def test_sensor_outage_hits_registration_in_flight(self):
        device = _device()
        plan = _oneshot_plan(FaultKind.SERVICE_OUTAGE, param="sensor")
        with faults.session(plan):
            device.clock.sleep(10.0)
            with pytest.raises(ServiceUnavailable, match="sensor"):
                device.sensor_service.register_listener(PKG, TYPE_HEART_RATE)
            device.clock.sleep(SERVICE_OUTAGE_WINDOW_MS + 10.0)
            device.sensor_service.register_listener(PKG, TYPE_HEART_RATE)
            assert device.sensor_service.has_listeners(PKG)

    def test_outage_errors_are_transient_dead_objects(self):
        # The retry layer keys on DeadObjectException; the whole service
        # family must stay inside that umbrella so outages get retried.
        exc = ServiceUnavailable("activity", 400.0)
        assert isinstance(exc, DeadObjectException)
        assert isinstance(exc, TRANSIENT_ERRORS)
        assert isinstance(ServiceRestarted("activity"), TRANSIENT_ERRORS)
        assert isinstance(StaleBinderReply("package", "mangled"), TRANSIENT_ERRORS)
        # Version skew is permanent: never retried.
        assert not isinstance(
            CompatMismatchError("f", 25, 23), TRANSIENT_ERRORS
        )


class TestCorruptedReplies:
    def test_stale_component_parcel_fails_resolution_once(self):
        device = _device()
        plan = _oneshot_plan(
            FaultKind.SERVICE_CORRUPT, param=CORRUPT_STALE_COMPONENT
        )
        with faults.session(plan):
            device.clock.sleep(10.0)
            with pytest.raises(StaleBinderReply, match="ComponentInfo"):
                device.activity_manager.start_activity(PKG, _intent())
            # Consumed: the same dispatch now resolves cleanly.
            result = device.activity_manager.start_activity(PKG, _intent())
            assert result.delivered

    def test_drop_listener_silently_loses_the_registration(self):
        device = _device()
        plan = _oneshot_plan(FaultKind.SERVICE_CORRUPT, param=CORRUPT_DROP_LISTENER)
        with faults.session(plan):
            device.clock.sleep(10.0)
            device.sensor_service.register_listener(PKG, TYPE_HEART_RATE)
            assert not device.sensor_service.has_listeners(PKG)
            assert "dropped listener registration" in device.adb.logcat()
            # One-shot consumed: the next registration sticks.
            device.sensor_service.register_listener(PKG, TYPE_HEART_RATE)
            assert device.sensor_service.has_listeners(PKG)

    def test_dup_listener_registers_twice(self):
        device = _device()
        plan = _oneshot_plan(FaultKind.SERVICE_CORRUPT, param=CORRUPT_DUP_LISTENER)
        with faults.session(plan):
            device.clock.sleep(10.0)
            device.sensor_service.register_listener(PKG, TYPE_HEART_RATE)
            assert len(device.sensor_service.listeners_of(PKG)) == 2


class TestSystemRestart:
    def test_restart_bounces_services_without_a_reboot(self):
        device = _device()
        device.sensor_service.register_listener(PKG, TYPE_HEART_RATE)
        boots = device.boot_count
        plan = _oneshot_plan(FaultKind.SYSTEM_RESTART)
        with faults.session(plan):
            device.clock.sleep(10.0)
            with pytest.raises(ServiceRestarted):
                device.activity_manager.start_activity(PKG, _intent())
            # A soft bounce, not a reboot: boot_count must not move (the
            # paper's reboot counts come from it) and no watchdog line lands.
            assert device.boot_count == boots
            assert "system_server died" in device.adb.logcat()
            assert "WATCHDOG" not in device.adb.logcat()
            # Every service restarted: registered listeners are gone.
            assert not device.sensor_service.has_listeners(PKG)
            assert device.sensor_service.alive
            # The system recovers: the next dispatch goes through.
            result = device.activity_manager.start_activity(PKG, _intent())
            assert result.delivered

    def test_restart_clears_open_outage_windows(self):
        device = _device()
        plan = FaultPlan(
            seed=0,
            oneshots=(
                FaultEvent(5.0, FaultKind.SERVICE_OUTAGE, "activity"),
                FaultEvent(6.0, FaultKind.SYSTEM_RESTART),
            ),
        )
        with faults.session(plan):
            device.clock.sleep(10.0)
            # The restart drains first and wipes the pending outage with
            # the rest of the in-flight service state.
            with pytest.raises(ServiceRestarted):
                device.activity_manager.start_activity(PKG, _intent())
            result = device.activity_manager.start_activity(PKG, _intent())
            assert result.delivered


class TestDeterminism:
    def test_same_plan_same_manifestation_sequence(self):
        plan = FaultPlan(
            seed=21,
            service_outage_every_ms=5_000.0,
            service_corrupt_every_ms=7_000.0,
            system_restart_every_ms=CHAOS_INTERVALS_MS[FaultKind.SYSTEM_RESTART],
        )

        def run():
            device = _device()
            observed = []
            with faults.session(plan):
                for _ in range(40):
                    device.clock.sleep(1_000.0)
                    try:
                        device.activity_manager.start_activity(PKG, _intent())
                        observed.append("ok")
                    except (ServiceUnavailable, StaleBinderReply, ServiceRestarted) as exc:
                        observed.append(type(exc).__name__)
            return observed

        first, second = run(), run()
        assert first == second
        assert set(first) > {"ok"}  # faults actually manifested
