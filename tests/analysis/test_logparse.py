"""Tests for the logcat event scan and the threadtime codec."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.logparse import (
    AnrEvent,
    FatalExceptionEvent,
    HandledExceptionEvent,
    NativeSignalEvent,
    RebootEvent,
    SecurityDenialEvent,
    parse_events,
    parse_lines,
)
from repro.android.clock import Clock
from repro.android.jtypes import (
    IllegalArgumentException,
    NullPointerException,
    RuntimeException,
    frame,
    sigabrt,
)
from repro.android.log import Level, LogRecord, Logcat

#: Every separator ``str.splitlines`` breaks on.
_LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"

#: ``_format_time`` prints the day in two digits: day 99 ends 1,910 virtual
#: hours after the 06-20 10:00 epoch.
_TIME_LIMIT_MS = 1_910 * 3_600_000

#: Records inside the grammar's domain: a tag without ``:``, line breaks or
#: surrounding whitespace, a single-line message, non-negative pid and tid,
#: a whole-millisecond time below the two-digit-day limit.
grammar_records = st.builds(
    LogRecord,
    time_ms=st.integers(min_value=0, max_value=_TIME_LIMIT_MS - 1).map(float),
    pid=st.integers(min_value=0, max_value=2**31),
    tid=st.integers(min_value=0, max_value=2**31),
    level=st.sampled_from(Level),
    tag=st.text(
        st.characters(blacklist_characters=":" + _LINE_BREAKS), min_size=1, max_size=30
    ).filter(lambda tag: tag == tag.strip()),
    message=st.text(st.characters(blacklist_characters=_LINE_BREAKS), max_size=120),
)

#: Any record at all: level, pid, tag and message unconstrained.
arbitrary_records = st.builds(
    LogRecord,
    time_ms=st.floats(allow_nan=False, allow_infinity=False),
    pid=st.integers(),
    tid=st.integers(),
    level=st.sampled_from(Level),
    tag=st.text(max_size=30),
    message=st.text(max_size=120),
)


@pytest.fixture()
def logcat():
    return Logcat(Clock())


def _from_records(logcat):
    return logcat.records()


def _from_text(logcat):
    return parse_lines(logcat.dump())


class ReadPath:
    """Event tests read the log as the records ``adb`` pulls; each class has
    a ``FromText`` twin below that reads the same log as decoded text."""

    read = staticmethod(_from_records)

    def events_of(self, logcat, kind=None):
        events = parse_events(self.read(logcat))
        if kind is None:
            return events
        return [e for e in events if isinstance(e, kind)]


class TestLineParsing:
    def test_round_trip_basic_line(self, logcat):
        logcat.i("MyTag", "hello world", pid=42)
        lines = list(parse_lines(logcat.dump()))
        assert len(lines) == 1
        assert lines[0].tag == "MyTag"
        assert lines[0].pid == 42
        assert lines[0].message == "hello world"
        assert str(lines[0].level) == "I"

    def test_time_round_trip(self):
        clock = Clock()
        logcat = Logcat(clock)
        clock.sleep(3_723_456)  # 1h 2m 3.456s
        logcat.i("T", "x")
        line = next(parse_lines(logcat.dump()))
        assert line.time_ms == pytest.approx(3_723_456)

    def test_garbage_lines_skipped(self):
        assert list(parse_lines("not a log line\n\nanother one")) == []

    @given(grammar_records)
    @settings(max_examples=200, deadline=None)
    def test_codec_round_trip(self, record):
        assert list(parse_lines(record.render())) == [record]

    @given(st.text(max_size=500))
    @settings(max_examples=60, deadline=None)
    def test_parser_total(self, text):
        parse_events(parse_lines(text))  # must never raise

    @given(st.lists(arbitrary_records, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_parser_total_on_records(self, records):
        parse_events(records)  # must never raise


class TestFatalBlocks(ReadPath):
    def test_simple_fatal(self, logcat):
        exc = NullPointerException("null deref")
        exc.frames = [frame("com.a.MainActivity", "onCreate", 10)]
        exc.with_frames(exc.frames, "activity")
        logcat.fatal_exception("com.a", 77, exc)
        events = self.events_of(logcat, FatalExceptionEvent)
        assert len(events) == 1
        event = events[0]
        assert event.process == "com.a"
        assert event.pid == 77
        assert event.exception_chain == ["java.lang.NullPointerException"]
        assert "com.a.MainActivity" in event.frames

    def test_cause_chain_order(self, logcat):
        inner = NullPointerException("inner")
        inner.frames = [frame("com.a.Helper", "work", 5)]
        outer = RuntimeException("Unable to start activity", cause=inner)
        outer.frames = [frame("android.app.ActivityThread", "performLaunchActivity", 2778)]
        logcat.fatal_exception("com.a", 5, outer)
        event = self.events_of(logcat, FatalExceptionEvent)[0]
        assert event.exception_chain == [
            "java.lang.RuntimeException",
            "java.lang.NullPointerException",
        ]
        assert event.outer_class == "java.lang.RuntimeException"
        assert event.root_class == "java.lang.NullPointerException"

    def test_two_fatal_blocks(self, logcat):
        for i in range(2):
            exc = NullPointerException(f"crash {i}")
            exc.with_frames([frame("com.a.Main", "onCreate", 1)], "activity")
            logcat.fatal_exception("com.a", 77, exc)
        assert len(self.events_of(logcat, FatalExceptionEvent)) == 2

    def test_fatal_messages_captured(self, logcat):
        exc = IllegalArgumentException("bad uri scheme")
        exc.with_frames([frame("com.a.Main", "onCreate", 1)], "activity")
        logcat.fatal_exception("com.a", 1, exc)
        event = self.events_of(logcat, FatalExceptionEvent)[0]
        assert event.messages[0] == "bad uri scheme"

    def test_event_time_is_whole_milliseconds(self):
        clock = Clock()
        logcat = Logcat(clock)
        clock.sleep(1_500.5)
        exc = NullPointerException("x")
        exc.with_frames([frame("com.a.Main", "onCreate", 1)], "activity")
        logcat.fatal_exception("com.a", 1, exc)
        (event,) = self.events_of(logcat, FatalExceptionEvent)
        assert event.time_ms == 1_500 and isinstance(event.time_ms, int)


class TestOtherEvents(ReadPath):
    def test_anr(self, logcat):
        logcat.anr("com.a", 5, "com.a/.Main", "blocked 9000ms")
        events = self.events_of(logcat, AnrEvent)
        assert len(events) == 1
        assert events[0].process == "com.a"
        assert events[0].component == "com.a/.Main"
        assert events[0].reason == "blocked 9000ms"

    def test_security_denial_with_component(self, logcat):
        logcat.security_denial(
            0, "broadcasting protected action X from com.qgj to com.a/.Main"
        )
        events = self.events_of(logcat, SecurityDenialEvent)
        assert len(events) == 1
        assert events[0].component == "com.a/com.a.Main"

    def test_security_denial_with_cmp_string(self, logcat):
        logcat.security_denial(
            0,
            "starting Intent { act=x cmp=com.a/.Main } from com.qgj not exported",
        )
        events = self.events_of(logcat, SecurityDenialEvent)
        assert events[0].component == "com.a/com.a.Main"

    def test_native_signal(self, logcat):
        logcat.native_crash(sigabrt("/system/lib/libsensorservice.so", "wedged"), pid=3)
        events = self.events_of(logcat, NativeSignalEvent)
        assert len(events) == 1
        assert events[0].signal == "SIGABRT"
        assert events[0].number == 6
        assert "libsensorservice" in events[0].process

    def test_reboot_marker(self, logcat):
        logcat.reboot_marker("aging collapse")
        events = self.events_of(logcat, RebootEvent)
        assert len(events) == 1
        assert events[0].reason == "aging collapse"

    def test_handled_exception(self, logcat):
        exc = IllegalArgumentException("rejected")
        exc.frames = [frame("com.a.SyncService", "validateIntent", 31)]
        logcat.handled_exception("AppTag", 9, exc, context="rejected intent")
        events = self.events_of(logcat, HandledExceptionEvent)
        assert len(events) == 1
        assert events[0].exception_class == "java.lang.IllegalArgumentException"

    def test_attach_handled_frames(self, logcat):
        exc = IllegalArgumentException("rejected")
        exc.frames = [frame("com.a.SyncService", "validateIntent", 31)]
        logcat.handled_exception("AppTag", 9, exc, context="rejected intent")
        handled = self.events_of(logcat, HandledExceptionEvent)[0]
        assert "com.a.SyncService" in handled.frames

    def test_attach_frames_separates_same_class_blocks(self, logcat):
        for cls_name in ("com.a.One", "com.a.Two"):
            exc = IllegalArgumentException("rejected")
            exc.frames = [frame(cls_name, "validate", 1)]
            logcat.handled_exception("AppTag", 9, exc)
        handled = self.events_of(logcat, HandledExceptionEvent)
        assert handled[0].frames[0] == "com.a.One"
        assert handled[1].frames[0] == "com.a.Two"

    def test_frames_stop_at_another_pid(self, logcat):
        exc = IllegalArgumentException("rejected")
        exc.frames = [frame("com.a.One", "validate", 1)]
        logcat.handled_exception("AppTag", 9, exc)
        logcat.w("Other", "\tat com.b.Two.run(Two.java:1)", pid=10)
        logcat.w("AppTag", "at com.a.Three.run(Three.java:1)", pid=9)
        (handled,) = self.events_of(logcat, HandledExceptionEvent)
        assert handled.frames == ["com.a.One"]

    def test_security_exception_in_warning_not_double_counted(self, logcat):
        logcat.security_denial(0, "broadcasting protected action X to com.a/.Main")
        events = self.events_of(logcat)
        assert len([e for e in events if isinstance(e, SecurityDenialEvent)]) == 1
        assert len([e for e in events if isinstance(e, HandledExceptionEvent)]) == 0


class TestMixedStream(ReadPath):
    def test_interleaved_events(self, logcat):
        exc = NullPointerException("x")
        exc.with_frames([frame("com.a.Main", "onCreate", 1)], "activity")
        logcat.i("ActivityManager", "START u0 {Intent { act=a cmp=com.a/.Main }} from com.a")
        logcat.fatal_exception("com.a", 7, exc)
        logcat.anr("com.b", 8, "com.b/.Svc", "slow")
        logcat.reboot_marker("test")
        events = self.events_of(logcat)
        kinds = [type(e).__name__ for e in events]
        assert kinds == ["FatalExceptionEvent", "AnrEvent", "RebootEvent"]


class TestFatalBlocksFromText(TestFatalBlocks):
    read = staticmethod(_from_text)


class TestOtherEventsFromText(TestOtherEvents):
    read = staticmethod(_from_text)


class TestMixedStreamFromText(TestMixedStream):
    read = staticmethod(_from_text)


class TestTruncatedRing:
    """A ring cut through a block's head: both read paths agree on what is
    left, and neither resurrects the lost head."""

    @staticmethod
    def _cut(logcat, head_records):
        logcat.truncate_oldest(head_records)
        events = parse_events(logcat.records())
        assert parse_events(parse_lines(logcat.dump())) == events
        return events

    def test_through_a_fatal_block_head(self, logcat):
        inner = NullPointerException("inner")
        inner.frames = [frame("com.a.Helper", "work", 5)]
        outer = RuntimeException("Unable to start activity", cause=inner)
        outer.frames = [frame("com.a.Main", "onCreate", 1)]
        logcat.fatal_exception("com.a", 7, outer)
        logcat.anr("com.b", 8, "com.b/.Svc", "slow")
        events = self._cut(logcat, 2)  # header and Process: line gone
        assert not [e for e in events if isinstance(e, FatalExceptionEvent)]
        assert [type(e) for e in events][-1] is AnrEvent

    def test_through_a_handled_block_head(self, logcat):
        for cls_name in ("com.a.One", "com.a.Two"):
            exc = IllegalArgumentException("rejected")
            exc.frames = [frame(cls_name, "validate", 1), frame(cls_name, "run", 2)]
            logcat.handled_exception("AppTag", 9, exc)
        events = self._cut(logcat, 2)  # first exception line and one frame gone
        (handled,) = events
        assert handled.frames == ["com.a.Two", "com.a.Two"]
