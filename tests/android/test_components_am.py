"""Tests for component lifecycles, the package manager, and intent dispatch."""

import pytest

from repro.android.component import (
    Activity,
    ActivityState,
    ComponentInfo,
    ComponentKind,
    Service,
    ServiceState,
)
from repro.android.context import Context
from repro.android.device import Device
from repro.android.intent import ComponentName, Intent, launcher_filter
from repro.android.jtypes import (
    ActivityNotFoundException,
    IllegalStateException,
    NullPointerException,
    SecurityException,
)
from repro.android.package_manager import AppCategory, AppOrigin, PackageInfo


def make_package(
    package="com.example.app",
    exported=True,
    permission=None,
    origin=AppOrigin.THIRD_PARTY,
    behavior_key=None,
):
    main = ComponentInfo(
        name=ComponentName(package, f"{package}.MainActivity"),
        kind=ComponentKind.ACTIVITY,
        exported=exported,
        permission=permission,
        intent_filters=[launcher_filter()],
        behavior_key=behavior_key,
    )
    svc = ComponentInfo(
        name=ComponentName(package, f"{package}.SyncService"),
        kind=ComponentKind.SERVICE,
        exported=exported,
        permission=permission,
        behavior_key=behavior_key,
    )
    return PackageInfo(
        package=package,
        label="Example",
        category=AppCategory.OTHER,
        origin=origin,
        components=[main, svc],
    )


@pytest.fixture
def device():
    dev = Device("test-device")
    dev.install(make_package())
    return dev


class TestLifecycles:
    def _activity(self, device):
        info = device.packages.resolve_component(
            ComponentName("com.example.app", "com.example.app.MainActivity")
        )
        return Activity(info, Context("com.example.app", device))

    def test_activity_happy_path(self, device):
        activity = self._activity(device)
        activity.perform_create(Intent("a"))
        activity.perform_start()
        activity.perform_resume()
        assert activity.state == ActivityState.RESUMED

    def test_double_create_raises_ise(self, device):
        activity = self._activity(device)
        activity.perform_create(Intent("a"))
        with pytest.raises(IllegalStateException):
            activity.perform_create(Intent("a"))

    def test_resume_before_start_raises_ise(self, device):
        activity = self._activity(device)
        activity.perform_create(Intent("a"))
        with pytest.raises(IllegalStateException):
            activity.perform_resume()

    def test_pause_stop_restart(self, device):
        activity = self._activity(device)
        activity.perform_create(Intent("a"))
        activity.perform_start()
        activity.perform_resume()
        activity.perform_pause()
        activity.perform_stop()
        activity.perform_start()
        activity.perform_resume()
        assert activity.state == ActivityState.RESUMED

    def test_new_intent_on_destroyed_raises(self, device):
        activity = self._activity(device)
        activity.perform_create(Intent("a"))
        activity.perform_destroy()
        with pytest.raises(IllegalStateException):
            activity.perform_new_intent(Intent("b"))

    def _service(self, device):
        info = device.packages.resolve_component(
            ComponentName("com.example.app", "com.example.app.SyncService")
        )
        return Service(info, Context("com.example.app", device))

    def test_service_happy_path(self, device):
        service = self._service(device)
        service.perform_create()
        service.perform_start_command(Intent("a"), 1)
        assert service.state == ServiceState.STARTED
        assert service.start_count == 1

    def test_service_start_before_create_raises(self, device):
        service = self._service(device)
        with pytest.raises(IllegalStateException):
            service.perform_start_command(Intent("a"), 1)

    def test_service_unbind_without_bind_raises(self, device):
        service = self._service(device)
        service.perform_create()
        with pytest.raises(IllegalStateException):
            service.perform_unbind()

    def test_service_bind_unbind(self, device):
        service = self._service(device)
        service.perform_create()
        service.perform_bind(Intent("a"))
        assert service.bound_clients == 1
        service.perform_unbind()
        assert service.bound_clients == 0


class TestPackageManager:
    def test_install_and_resolve(self, device):
        info = device.packages.resolve_component(
            ComponentName("com.example.app", "com.example.app.MainActivity")
        )
        assert info is not None
        assert info.kind == ComponentKind.ACTIVITY

    def test_double_install_rejected(self, device):
        with pytest.raises(ValueError):
            device.install(make_package())

    def test_component_package_mismatch_rejected(self):
        device = Device()
        pkg = make_package()
        pkg.components[0] = ComponentInfo(
            name=ComponentName("com.other", "com.other.X"),
            kind=ComponentKind.ACTIVITY,
        )
        with pytest.raises(ValueError):
            device.install(pkg)

    def test_uninstall(self, device):
        device.packages.uninstall("com.example.app")
        assert not device.packages.is_installed("com.example.app")
        assert device.packages.resolve_component(
            ComponentName("com.example.app", "com.example.app.MainActivity")
        ) is None

    def test_launcher_activities(self, device):
        launchers = device.packages.launcher_activities()
        assert len(launchers) == 1
        assert launchers[0].name.simple_class == "MainActivity"

    def test_built_in_becomes_privileged(self):
        device = Device()
        device.install(make_package("com.android.core", origin=AppOrigin.BUILT_IN))
        assert device.permissions.is_privileged("com.android.core")

    def test_population_stats(self, device):
        stats = device.packages.population_stats()
        cell = stats["Not Health/Fitness|Third Party"]
        assert cell == {"apps": 1, "activities": 1, "services": 1}

    def test_query_intent_activities_implicit(self, device):
        intent = Intent("android.intent.action.MAIN").add_category(
            "android.intent.category.LAUNCHER"
        )
        matches = device.packages.query_intent_activities(intent)
        assert [m.name.simple_class for m in matches] == ["MainActivity"]


class TestDispatch:
    def test_explicit_activity_start(self, device):
        intent = Intent("android.intent.action.VIEW").set_class_name(
            "com.example.app", "com.example.app.MainActivity"
        )
        result = device.activity_manager.start_activity("com.qgj", intent)
        assert result.delivered and not result.crashed
        assert "START u0" in device.adb.logcat()
        assert device.activity_manager.foreground.name.simple_class == "MainActivity"

    def test_unknown_component_raises_anfe(self, device):
        intent = Intent().set_class_name("com.nope", "com.nope.X")
        with pytest.raises(ActivityNotFoundException):
            device.activity_manager.start_activity("com.qgj", intent)

    def test_service_intent_must_be_explicit(self, device):
        with pytest.raises(SecurityException):
            device.activity_manager.start_service("com.qgj", Intent("some.action"))

    def test_unknown_service_returns_none(self, device):
        intent = Intent().set_class_name("com.nope", "com.nope.S")
        assert device.activity_manager.start_service("com.qgj", intent) is None

    def test_protected_action_denied_for_unprivileged(self, device):
        intent = Intent("android.intent.action.BATTERY_LOW").set_class_name(
            "com.example.app", "com.example.app.MainActivity"
        )
        with pytest.raises(SecurityException):
            device.activity_manager.start_activity("com.qgj", intent)
        assert "Permission Denial" in device.adb.logcat()

    def test_protected_action_allowed_for_privileged(self, device):
        device.permissions.mark_privileged("com.sys")
        intent = Intent("android.intent.action.BATTERY_LOW").set_class_name(
            "com.example.app", "com.example.app.MainActivity"
        )
        result = device.activity_manager.start_activity("com.sys", intent)
        assert result.delivered

    def test_not_exported_denied_cross_package(self):
        device = Device()
        device.install(make_package(exported=False))
        intent = Intent("a").set_class_name("com.example.app", "com.example.app.MainActivity")
        with pytest.raises(SecurityException):
            device.activity_manager.start_activity("com.qgj", intent)

    def test_not_exported_allowed_same_package(self):
        device = Device()
        device.install(make_package(exported=False))
        intent = Intent("a").set_class_name("com.example.app", "com.example.app.MainActivity")
        result = device.activity_manager.start_activity("com.example.app", intent)
        assert result.delivered

    def test_permission_guarded_component(self):
        device = Device()
        device.install(make_package(permission="android.permission.BODY_SENSORS"))
        intent = Intent("a").set_class_name("com.example.app", "com.example.app.MainActivity")
        with pytest.raises(SecurityException):
            device.activity_manager.start_activity("com.qgj", intent)
        device.permissions.grant("com.qgj", "android.permission.BODY_SENSORS")
        result = device.activity_manager.start_activity("com.qgj", intent)
        assert result.delivered

    def test_repeat_start_uses_on_new_intent(self, device):
        intent = Intent("a").set_class_name("com.example.app", "com.example.app.MainActivity")
        device.activity_manager.start_activity("com.qgj", intent)
        info = device.packages.resolve_component(intent.component)
        first = device.activity_manager.live_component(info)
        device.activity_manager.start_activity("com.qgj", intent)
        assert device.activity_manager.live_component(info) is first


class TestVerdictsFollowChanges:
    """Resolution and permission verdicts are decided afresh on every
    dispatch: a change between two dispatches of the same (sender,
    component, action) shows in the second one's outcome."""

    SENDER = "com.qgj"

    def _dispatch(self, device, kind, action="a"):
        """``"delivered"``, ``"denied"`` or ``"not found"``."""
        cls = "MainActivity" if kind == ComponentKind.ACTIVITY else "SyncService"
        intent = Intent(action).set_class_name("com.example.app", f"com.example.app.{cls}")
        am = device.activity_manager
        try:
            if kind == ComponentKind.ACTIVITY:
                result = am.start_activity(self.SENDER, intent)
            else:
                name, result = am.start_service_with_result(self.SENDER, intent)
                if name is None:
                    return "not found"
        except SecurityException:
            return "denied"
        except ActivityNotFoundException:
            return "not found"
        assert result.delivered
        return "delivered"

    KINDS = pytest.mark.parametrize("kind", [ComponentKind.ACTIVITY, ComponentKind.SERVICE])

    @KINDS
    def test_grant_then_revoke(self, kind):
        device = Device()
        device.install(make_package(permission="android.permission.BODY_SENSORS"))
        assert self._dispatch(device, kind) == "denied"
        device.permissions.grant(self.SENDER, "android.permission.BODY_SENSORS")
        assert self._dispatch(device, kind) == "delivered"
        device.permissions.revoke(self.SENDER, "android.permission.BODY_SENSORS")
        assert self._dispatch(device, kind) == "denied"

    @KINDS
    def test_mark_privileged_lifts_a_protected_action_denial(self, kind):
        device = Device()
        device.install(make_package())
        action = "android.intent.action.BATTERY_LOW"
        assert self._dispatch(device, kind, action) == "denied"
        device.permissions.mark_privileged(self.SENDER)
        assert self._dispatch(device, kind, action) == "delivered"

    @KINDS
    def test_mark_privileged_reaches_a_non_exported_target(self, kind):
        device = Device()
        device.install(make_package(exported=False))
        assert self._dispatch(device, kind) == "denied"
        device.permissions.mark_privileged(self.SENDER)
        assert self._dispatch(device, kind) == "delivered"

    @KINDS
    def test_install_then_uninstall(self, kind):
        device = Device()
        assert self._dispatch(device, kind) == "not found"
        device.install(make_package())
        assert self._dispatch(device, kind) == "delivered"
        device.packages.uninstall("com.example.app")
        assert self._dispatch(device, kind) == "not found"

    @KINDS
    def test_reinstall_with_a_guard(self, kind):
        device = Device()
        device.install(make_package())
        assert self._dispatch(device, kind) == "delivered"
        device.packages.uninstall("com.example.app")
        device.install(make_package(exported=False))
        assert self._dispatch(device, kind) == "denied"


class _CrashingActivity(Activity):
    def on_handle_intent(self, intent, phase):
        raise NullPointerException("Attempt to read from null object")


class _BlockingActivity(Activity):
    def on_handle_intent(self, intent, phase):
        return 9000.0  # ms; past the 5000 ms ANR window


class TestFailureContainment:
    def _install_with_behavior(self, factory_key, cls):
        device = Device()
        device.install(make_package(behavior_key=factory_key))
        device.activity_manager.register_factory(
            factory_key, lambda info, ctx: cls(info, ctx)
        )
        return device

    def test_crash_logged_and_process_killed(self):
        device = self._install_with_behavior("crash", _CrashingActivity)
        intent = Intent("a").set_class_name("com.example.app", "com.example.app.MainActivity")
        result = device.activity_manager.start_activity("com.qgj", intent)
        assert result.crashed
        assert isinstance(result.throwable, NullPointerException)
        text = device.adb.logcat()
        assert "FATAL EXCEPTION: main" in text
        assert "has died" in text
        assert device.processes.get("com.example.app") is None

    def test_crash_keeps_java_frames_not_python_traceback(self):
        # The simulated Java stack is the record; Python's traceback would
        # hold the dispatch frames and close a reference cycle.
        device = self._install_with_behavior("crash", _CrashingActivity)
        intent = Intent("a").set_class_name("com.example.app", "com.example.app.MainActivity")
        result = device.activity_manager.start_activity("com.qgj", intent)
        (crash,) = [info for proc in device.processes.all_processes() for info in proc.crashes]
        assert crash.throwable is result.throwable
        assert result.throwable.__traceback__ is None
        fatal = [r.message for r in device.adb.logcat_records() if r.tag == "AndroidRuntime"]
        assert fatal[:3] == [
            "FATAL EXCEPTION: main",
            "Process: com.example.app, PID: 1002",
            "java.lang.NullPointerException: Attempt to read from null object",
        ]
        assert fatal[3:] == [f"\t{frame}" for frame in result.throwable.frames]
        assert [f"{f.class_name}.{f.method}:{f.line}" for f in result.throwable.frames] == [
            "com.example.app.MainActivity.handleIntent:1",
            "android.app.ActivityThread.performLaunchActivity:2817",
            "android.app.ActivityThread.handleLaunchActivity:2892",
            "android.app.ActivityThread.-wrap11:1",
            "android.app.ActivityThread$H.handleMessage:1593",
            "android.os.Handler.dispatchMessage:105",
            "android.os.Looper.loop:164",
            "android.app.ActivityThread.main:6541",
        ]

    def test_crash_clears_foreground(self):
        device = self._install_with_behavior("crash", _CrashingActivity)
        intent = Intent("a").set_class_name("com.example.app", "com.example.app.MainActivity")
        device.activity_manager.start_activity("com.qgj", intent)
        assert device.activity_manager.foreground is None

    def test_crash_deposits_aging(self):
        device = self._install_with_behavior("crash", _CrashingActivity)
        intent = Intent("a").set_class_name("com.example.app", "com.example.app.MainActivity")
        before = device.system_server.aging.score()
        device.activity_manager.start_activity("com.qgj", intent)
        assert device.system_server.aging.score() > before

    def test_anr_logged(self):
        device = self._install_with_behavior("block", _BlockingActivity)
        intent = Intent("a").set_class_name("com.example.app", "com.example.app.MainActivity")
        result = device.activity_manager.start_activity("com.qgj", intent)
        assert result.anr and not result.crashed
        assert "ANR in com.example.app" in device.adb.logcat()

    def test_crashed_process_restarts_on_next_start(self):
        device = self._install_with_behavior("crash", _CrashingActivity)
        intent = Intent("a").set_class_name("com.example.app", "com.example.app.MainActivity")
        device.activity_manager.start_activity("com.qgj", intent)
        result = device.activity_manager.start_activity("com.qgj", intent)
        assert result.crashed  # fresh process, crashes again

    def test_ui_event_without_foreground_dropped(self, device):
        result = device.activity_manager.deliver_ui_event("tap", x=1.0, y=2.0)
        assert not result.delivered

    def test_ui_event_delivered_to_foreground(self, device):
        intent = Intent("a").set_class_name("com.example.app", "com.example.app.MainActivity")
        device.activity_manager.start_activity("com.qgj", intent)
        result = device.activity_manager.deliver_ui_event("tap", x=1.0, y=2.0)
        assert result.delivered and not result.crashed

    def test_force_stop(self, device):
        intent = Intent("a").set_class_name("com.example.app", "com.example.app.MainActivity")
        device.activity_manager.start_activity("com.qgj", intent)
        killed = device.activity_manager.force_stop("com.example.app")
        assert killed == 1
        assert device.processes.get("com.example.app") is None
