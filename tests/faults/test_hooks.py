"""End-to-end tests for the fault-plane hooks inside the android layer."""

import pytest

from repro import faults
from repro.android.component import ComponentInfo, ComponentKind
from repro.android.device import Device
from repro.android.intent import ComponentName, Intent, launcher_filter
from repro.android.jtypes import DeadObjectException, TransactionTooLargeException
from repro.android.package_manager import AppCategory, AppOrigin, PackageInfo
from repro.faults.errors import AdbSessionDropped
from repro.faults.plan import (
    BINDER_DEAD_OBJECT,
    BINDER_TOO_LARGE,
    FaultEvent,
    FaultKind,
    FaultPlan,
)
from repro.faults.plane import NOOP_PLANE


@pytest.fixture(autouse=True)
def _no_leaked_plane():
    yield
    faults.uninstall()


def _device():
    dev = Device("watch")
    main = ComponentInfo(
        name=ComponentName("com.example.app", "com.example.app.MainActivity"),
        kind=ComponentKind.ACTIVITY,
        intent_filters=[launcher_filter()],
    )
    dev.install(
        PackageInfo(
            package="com.example.app",
            label="Example",
            category=AppCategory.OTHER,
            origin=AppOrigin.THIRD_PARTY,
            components=[main],
        )
    )
    return dev


def _oneshot_plan(kind, at_ms=5.0, param=""):
    return FaultPlan(seed=0, oneshots=(FaultEvent(at_ms, kind, param),))


class TestInstallSemantics:
    def test_default_is_the_noop_plane(self):
        assert faults.get() is NOOP_PLANE
        assert not faults.enabled()
        assert faults.fingerprint() == "none"

    def test_install_and_uninstall(self):
        plan = FaultPlan.chaos(seed=1)
        plane = faults.install(plan)
        assert faults.get() is plane
        assert faults.enabled()
        assert faults.fingerprint() == plan.fingerprint()
        faults.uninstall()
        assert faults.get() is NOOP_PLANE

    def test_session_disarms_on_exit_even_on_error(self):
        with pytest.raises(RuntimeError):
            with faults.session(FaultPlan(seed=2)):
                assert faults.enabled()
                raise RuntimeError("boom")
        assert not faults.enabled()

    def test_session_with_none_keeps_current_plane(self):
        with faults.session(None) as plane:
            assert plane is NOOP_PLANE
        assert faults.get() is NOOP_PLANE


class TestAdbDrop:
    def test_session_drop_fires_once_then_recovers(self):
        device = _device()
        with faults.session(_oneshot_plan(FaultKind.ADB_DROP)):
            assert device.adb.shell("pm list packages").ok  # not due yet
            device.clock.sleep(10.0)
            with pytest.raises(AdbSessionDropped, match="session dropped"):
                device.adb.shell("pm list packages")
            assert device.adb.shell("pm list packages").ok
            device.adb.logcat()  # logcat pull shares the hook and survives


class TestBinderFaults:
    @pytest.mark.parametrize(
        "param,expected",
        [
            (BINDER_DEAD_OBJECT, DeadObjectException),
            (BINDER_TOO_LARGE, TransactionTooLargeException),
        ],
    )
    def test_am_dispatch_raises_named_transport_exception(self, param, expected):
        device = _device()
        intent = Intent(
            component=ComponentName("com.example.app", "com.example.app.MainActivity")
        )
        with faults.session(_oneshot_plan(FaultKind.BINDER, param=param)):
            device.clock.sleep(10.0)
            with pytest.raises(expected):
                device.activity_manager.start_activity("com.example.app", intent)
            # The fault was consumed; the same dispatch now goes through.
            result = device.activity_manager.start_activity("com.example.app", intent)
            assert result.delivered


class TestLmkdKill:
    def test_victim_is_reaped_and_restarts_cold(self):
        device = _device()
        with faults.session(_oneshot_plan(FaultKind.LMKD_KILL, at_ms=1_000.0)):
            device.adb.shell("am start -n com.example.app/.MainActivity")
            first_pid = device.processes.get("com.example.app").pid
            device.clock.sleep(2_000.0)
            device.adb.shell("am start -n com.example.app/.MainActivity")
            proc = device.processes.get("com.example.app")
            assert proc is not None and proc.pid > first_pid
            assert device.processes.lmkd_kills == 1
            assert "lowmemorykiller" in device.adb.logcat()
            assert f"({first_pid})" in device.adb.logcat()


class TestLogcatTruncate:
    def test_buffer_halved_on_next_adb_pull(self):
        device = _device()
        with faults.session(_oneshot_plan(FaultKind.LOGCAT_TRUNCATE, at_ms=1_000.0)):
            for _ in range(4):
                device.adb.shell("am start -n com.example.app/.MainActivity")
            buffered = len(device.logcat)
            assert buffered >= 4
            device.clock.sleep(2_000.0)
            device.adb.logcat()
            assert len(device.logcat) == buffered - buffered // 2
            assert device.logcat.dropped == buffered // 2
