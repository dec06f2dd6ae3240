"""Edge-case tests rounding out the substrate's smaller surfaces."""

from repro.android.clock import Clock
from repro.android.component import describe_components, ComponentInfo, ComponentKind
from repro.android.device import Device
from repro.android.intent import ComponentName, launcher_filter
from repro.android.log import Level, Logcat
from repro.android.package_manager import AppCategory, AppOrigin, PackageInfo


class TestLogLevels:
    def test_level_letters(self):
        assert [str(level) for level in Level] == ["V", "D", "I", "W", "E", "F"]

    def test_all_write_helpers(self):
        logcat = Logcat(Clock())
        logcat.v("T", "verbose")
        logcat.d("T", "debug")
        logcat.i("T", "info")
        logcat.w("T", "warn")
        logcat.e("T", "error")
        # threadtime layout: date time pid tid LEVEL tag: message
        letters = [line.split()[4] for line in logcat.dump_lines()]
        assert letters == ["V", "D", "I", "W", "E"]

    def test_explicit_tid(self):
        logcat = Logcat(Clock())
        logcat.write(Level.INFO, "T", "x", pid=5, tid=9)
        line = logcat.dump()
        assert "    5     9 I" in line


class TestDescribeComponents:
    def test_inventory_lines(self):
        infos = [
            ComponentInfo(
                name=ComponentName("com.a", "com.a.Main"),
                kind=ComponentKind.ACTIVITY,
                intent_filters=[launcher_filter()],
            ),
            ComponentInfo(
                name=ComponentName("com.a", "com.a.Svc"),
                kind=ComponentKind.SERVICE,
                exported=False,
            ),
            ComponentInfo(
                name=ComponentName("com.a", "com.a.Guarded"),
                kind=ComponentKind.ACTIVITY,
                permission="android.permission.BODY_SENSORS",
            ),
        ]
        text = describe_components(infos)
        assert "com.a/.Main" in text
        assert "[not-exported]" in text
        assert "permission=android.permission.BODY_SENSORS" in text


class TestInstallAll:
    def test_install_all(self):
        device = Device()
        packages = [
            PackageInfo(
                package=f"com.app{i}",
                label=f"App{i}",
                category=AppCategory.OTHER,
                origin=AppOrigin.THIRD_PARTY,
                components=[],
            )
            for i in range(3)
        ]
        device.install_all(packages)
        assert len(device.packages.installed_packages()) == 3


class TestPackageInfoHelpers:
    def test_component_lookup(self):
        info = ComponentInfo(
            name=ComponentName("com.a", "com.a.Main"), kind=ComponentKind.ACTIVITY
        )
        package = PackageInfo(
            package="com.a",
            label="A",
            category=AppCategory.OTHER,
            origin=AppOrigin.THIRD_PARTY,
            components=[info],
        )
        assert package.component("com.a.Main") is info
        assert package.component("com.a.Nope") is None

    def test_receivers_listing(self):
        receiver = ComponentInfo(
            name=ComponentName("com.a", "com.a.Recv"), kind=ComponentKind.RECEIVER
        )
        package = PackageInfo(
            package="com.a",
            label="A",
            category=AppCategory.OTHER,
            origin=AppOrigin.THIRD_PARTY,
            components=[receiver],
        )
        assert package.receivers() == [receiver]
        assert package.activities() == []

    def test_effective_process_override(self):
        info = ComponentInfo(
            name=ComponentName("com.a", "com.a.Main"),
            kind=ComponentKind.ACTIVITY,
            process_name="com.a:remote",
        )
        assert info.effective_process() == "com.a:remote"


class TestSystemServerIntrospection:
    def test_health_summary(self):
        device = Device()
        summary = device.system_server.health_summary()
        assert summary["aging_score"] == 0.0
        assert summary["reboots"] == 0.0
