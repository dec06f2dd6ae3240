"""Tests for root-cause attribution and the manifestation classifier."""

import pytest
from hypothesis import given, strategies as st

from repro.analysis.logparse import (
    AnrEvent,
    FatalExceptionEvent,
    HandledExceptionEvent,
    NativeSignalEvent,
    RebootEvent,
    SecurityDenialEvent,
)
from repro.analysis.manifest import (
    ComponentRecord,
    Manifestation,
    StudyCollector,
)
from repro.analysis.rootcause import (
    app_frame,
    attribute_anr,
    equal_blame,
    guilty_class,
    reboot_culprit_classes,
    reboot_window_events,
)
from repro.android.clock import Clock
from repro.android.component import ComponentInfo, ComponentKind
from repro.android.intent import ComponentName
from repro.android.jtypes import (
    IllegalStateException,
    NullPointerException,
    frame,
)
from repro.android.log import Logcat
from repro.android.package_manager import AppCategory, AppOrigin, PackageInfo


def fatal(time_ms, chain, frames=("com.a.Main",), process="com.a"):
    return FatalExceptionEvent(
        time_ms=time_ms,
        process=process,
        pid=1,
        exception_chain=list(chain),
        messages=[""] * len(chain),
        frames=list(frames),
    )


def handled(time_ms, cls, frames=("com.a.Main",)):
    return HandledExceptionEvent(
        time_ms=time_ms, pid=1, tag="T", exception_class=cls, message=None, frames=list(frames)
    )


#: Event times for the ANR property: a few fixed instants around the 2 s
#: window's edges force same-millisecond ties; drawn lists are in any order.
_TIMES = st.one_of(
    st.sampled_from([0, 999, 1000, 2999, 3000, 3001, 5000]),
    st.integers(0, 6_000),
    st.floats(0, 6_000, allow_nan=False),
)
_CLASSES = st.sampled_from(["a.A", "a.B", "a.C", "java.lang.SecurityException"])
_ANRS = st.builds(
    lambda t: AnrEvent(time_ms=t, process="com.a", component="com.a/.S", reason=""), _TIMES
)
_EVENTS = st.lists(
    st.one_of(
        st.builds(handled, _TIMES, _CLASSES),
        st.builds(lambda t, c: fatal(t, [c]), _TIMES, _CLASSES),
        _ANRS,
        st.builds(lambda t: RebootEvent(time_ms=t, reason="x"), _TIMES),
        st.builds(lambda t: SecurityDenialEvent(time_ms=t, detail="d", component=None), _TIMES),
        st.builds(
            lambda t: NativeSignalEvent(time_ms=t, signal="SIGABRT", number=6, process="p", reason="r"),
            _TIMES,
        ),
    ),
    max_size=30,
)


class TestRootCauseRules:
    @given(_EVENTS, _ANRS)
    def test_attribute_anr_over_handled_events_only_is_exact(self, events, anr):
        """The fold passes a segment's handled exceptions, not every event:
        attribute_anr skips every other type, so the answer is the same."""
        handled_only = [e for e in events if isinstance(e, HandledExceptionEvent)]
        assert attribute_anr(anr, handled_only) == attribute_anr(anr, events)

    def test_guilty_class_is_innermost(self):
        event = fatal(0, ["java.lang.RuntimeException", "java.lang.NullPointerException"])
        assert guilty_class(event) == "java.lang.NullPointerException"

    def test_app_frame_skips_framework(self):
        frames = ["android.app.ActivityThread", "java.lang.Thread", "com.a.Main"]
        assert app_frame(frames) == "com.a.Main"
        assert app_frame(["android.app.X"]) is None

    def test_attribute_anr_picks_latest_in_window(self):
        anr = AnrEvent(time_ms=1000, process="com.a", component="com.a/.S", reason="")
        events = [
            handled(100, "java.lang.IllegalArgumentException"),   # too old
            handled(900, "java.lang.IllegalStateException"),
            handled(950, "android.os.DeadObjectException"),
            handled(1100, "java.lang.NullPointerException"),      # after the ANR
            anr,
        ]
        assert attribute_anr(anr, events) == "android.os.DeadObjectException"

    def test_attribute_anr_none_when_silent(self):
        anr = AnrEvent(time_ms=1000, process="com.a", component="com.a/.S", reason="")
        assert attribute_anr(anr, [anr]) is None

    def test_reboot_window_bounds(self):
        reboot = RebootEvent(time_ms=20_000, reason="x")
        events = [
            handled(1_000, "a.b.TooOldException"),
            handled(6_000, "a.b.InWindowException"),
            fatal(19_999, ["a.b.AlsoInException"]),
            handled(20_001, "a.b.AfterException"),
            reboot,
        ]
        window = reboot_window_events(reboot, events)
        classes = reboot_culprit_classes(window)
        assert "a.b.InWindowException" in classes
        assert "a.b.AlsoInException" in classes
        assert "a.b.TooOldException" not in classes
        assert "a.b.AfterException" not in classes

    def test_culprits_include_cause_chain(self):
        window = [fatal(0, ["java.lang.RuntimeException", "java.lang.NullPointerException"])]
        classes = reboot_culprit_classes(window)
        assert set(classes) == {
            "java.lang.RuntimeException",
            "java.lang.NullPointerException",
        }

    def test_equal_blame(self):
        blame = equal_blame(["a", "b", "c"])
        assert blame == {"a": pytest.approx(1 / 3), "b": pytest.approx(1 / 3), "c": pytest.approx(1 / 3)}
        assert equal_blame([]) == {}

    @given(st.lists(st.text(min_size=1, max_size=6), unique=True, min_size=1, max_size=12))
    def test_equal_blame_sums_to_one(self, classes):
        assert sum(equal_blame(classes).values()) == pytest.approx(1.0)


class TestManifestationLattice:
    def test_order(self):
        assert (
            Manifestation.NO_EFFECT
            < Manifestation.HANG
            < Manifestation.CRASH
            < Manifestation.REBOOT
        )

    def test_record_severity_rules(self):
        record = ComponentRecord("com.a/com.a.M", ComponentKind.ACTIVITY, "com.a")
        assert record.manifestation() == Manifestation.NO_EFFECT
        record.anr_count = 1
        assert record.manifestation() == Manifestation.HANG
        record.fatal_root_classes["java.lang.NullPointerException"] = 1
        assert record.manifestation() == Manifestation.CRASH
        record.reboot_involved = True
        assert record.manifestation() == Manifestation.REBOOT

    def test_dominant_crash_class_tie_break(self):
        record = ComponentRecord("c", ComponentKind.ACTIVITY, "com.a")
        record.fatal_root_classes.update({"b.B": 2, "a.A": 2})
        assert record.dominant_crash_class() == "a.A"

    def test_exception_classes_dedup_per_class(self):
        record = ComponentRecord("c", ComponentKind.ACTIVITY, "com.a")
        record.fatal_root_classes["x.X"] = 5
        record.handled_classes["x.X"] = 3
        assert record.exception_classes()["x.X"] == 1


def make_collector():
    main = ComponentInfo(
        name=ComponentName("com.a", "com.a.Main"), kind=ComponentKind.ACTIVITY
    )
    svc = ComponentInfo(
        name=ComponentName("com.a", "com.a.Svc"), kind=ComponentKind.SERVICE
    )
    package = PackageInfo(
        package="com.a",
        label="A",
        category=AppCategory.HEALTH_FITNESS,
        origin=AppOrigin.THIRD_PARTY,
        components=[main, svc],
    )
    return StudyCollector([package])


class TestStudyCollector:
    def _log_crash(self, logcat, cls=NullPointerException, component_cls="com.a.Main"):
        exc = cls("boom")
        exc.with_frames([frame(component_cls, "onCreate", 1)], "activity")
        logcat.fatal_exception("com.a", 7, exc)

    def test_fold_crash(self):
        collector = make_collector()
        logcat = Logcat(Clock())
        self._log_crash(logcat)
        collector.fold(logcat.records(), "com.a", "A")
        record = collector.record_for("com.a/com.a.Main")
        assert record.crash_count == 1
        assert record.manifestation() == Manifestation.CRASH
        assert collector.app_campaign[("com.a", "A")] == Manifestation.CRASH

    def test_fold_anr(self):
        collector = make_collector()
        logcat = Logcat(Clock())
        logcat.anr("com.a", 7, "com.a/.Svc", "blocked")
        collector.fold(logcat.records(), "com.a", "C")
        record = collector.record_for("com.a/com.a.Svc")
        assert record.anr_count == 1
        assert collector.app_campaign[("com.a", "C")] == Manifestation.HANG

    def test_anr_cause_attribution(self):
        collector = make_collector()
        clock = Clock()
        logcat = Logcat(clock)
        exc = IllegalStateException("queue full")
        exc.frames = [frame("com.a.Svc", "onStartCommand", 9)]
        logcat.handled_exception("T", 7, exc, context="slow path")
        clock.sleep(500)
        logcat.anr("com.a", 7, "com.a/.Svc", "blocked")
        collector.fold(logcat.records(), "com.a", "A")
        record = collector.record_for("com.a/com.a.Svc")
        assert record.anr_cause_classes == {"java.lang.IllegalStateException": 1}

    def test_anr_cause_is_the_latest_handled_exception(self):
        collector = make_collector()
        clock = Clock()
        logcat = Logcat(clock)
        for cls in (IllegalStateException, NullPointerException):
            exc = cls("slow path")
            exc.frames = [frame("com.a.Svc", "onStartCommand", 9)]
            logcat.handled_exception("T", 7, exc)
            logcat.security_denial(0, "starting Intent { cmp=com.a/.Svc } from q")
            clock.sleep(300)
        logcat.anr("com.a", 7, "com.a/.Svc", "blocked")
        collector.fold(logcat.records(), "com.a", "A")
        record = collector.record_for("com.a/com.a.Svc")
        assert record.anr_cause_classes == {"java.lang.NullPointerException": 1}

    def test_fold_security_denial(self):
        collector = make_collector()
        logcat = Logcat(Clock())
        logcat.security_denial(0, "broadcasting protected action X to com.a/.Main")
        collector.fold(logcat.records(), "com.a", "A")
        record = collector.record_for("com.a/com.a.Main")
        assert record.security_denials == 1
        assert record.manifestation() == Manifestation.NO_EFFECT

    def test_fold_reboot_marks_involved_components(self):
        collector = make_collector()
        clock = Clock()
        logcat = Logcat(clock)
        self._log_crash(logcat)
        clock.sleep(500)
        logcat.reboot_marker("escalation")
        collector.fold(logcat.records(), "com.a", "D")
        record = collector.record_for("com.a/com.a.Main")
        assert record.reboot_involved
        assert record.manifestation() == Manifestation.REBOOT
        assert collector.app_campaign[("com.a", "D")] == Manifestation.REBOOT
        assert len(collector.reboots) == 1
        post_mortem = collector.reboots[0]
        assert post_mortem.campaign == "D"
        assert "java.lang.NullPointerException" in post_mortem.culprit_classes

    def test_old_crash_outside_reboot_window(self):
        collector = make_collector()
        clock = Clock()
        logcat = Logcat(clock)
        self._log_crash(logcat)
        clock.sleep(60_000)
        logcat.reboot_marker("later")
        collector.fold(logcat.records(), "com.a", "D")
        record = collector.record_for("com.a/com.a.Main")
        assert not record.reboot_involved
        assert record.manifestation() == Manifestation.CRASH

    def test_most_severe_wins_per_app_campaign(self):
        collector = make_collector()
        logcat = Logcat(Clock())
        logcat.anr("com.a", 7, "com.a/.Svc", "blocked")
        self._log_crash(logcat)
        collector.fold(logcat.records(), "com.a", "B")
        assert collector.app_campaign[("com.a", "B")] == Manifestation.CRASH

    def test_security_share(self):
        collector = make_collector()
        logcat = Logcat(Clock())
        logcat.security_denial(0, "broadcasting protected action X to com.a/.Main")
        logcat.security_denial(0, "broadcasting protected action Y to com.a/.Svc")
        self._log_crash(logcat)
        collector.fold(logcat.records(), "com.a", "A")
        # 3 distinct (component, class) exceptions, 2 are SecurityException.
        assert collector.security_share() == pytest.approx(2 / 3)

    def test_unknown_component_events_ignored(self):
        collector = make_collector()
        logcat = Logcat(Clock())
        self._log_crash(logcat, component_cls="com.unknown.Elsewhere")
        collector.fold(logcat.records(), "com.a", "A")
        for record in collector.component_records():
            assert record.crash_count == 0
        # Severity still noted at app level (the segment did crash).
        assert collector.app_campaign[("com.a", "A")] == Manifestation.CRASH

    def test_manifestation_counts(self):
        collector = make_collector()
        logcat = Logcat(Clock())
        self._log_crash(logcat)
        collector.fold(logcat.records(), "com.a", "A")
        counts = collector.manifestation_counts()
        assert counts[Manifestation.CRASH] == 1
        assert counts[Manifestation.NO_EFFECT] == 1
