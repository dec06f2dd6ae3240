"""Tests for the virtual clock and the logcat buffer."""

import pytest
from hypothesis import given, strategies as st

from repro.android.clock import Clock
from repro.android.jtypes import NullPointerException, frame, sigabrt
from repro.android.log import Level, LogRecord, Logcat, _format_time


class TestClock:
    def test_starts_at_zero(self):
        assert Clock().now_ms() == 0.0

    def test_sleep_advances(self):
        clock = Clock()
        clock.sleep(100)
        clock.sleep(250)
        assert clock.now_ms() == 350.0

    def test_negative_sleep_rejected(self):
        with pytest.raises(ValueError):
            Clock().sleep(-1)

    def test_advance_to_past_is_noop(self):
        clock = Clock(start_ms=500)
        clock.advance_to(100)
        assert clock.now_ms() == 500

    def test_callbacks_fire_in_deadline_order(self):
        clock = Clock()
        fired = []
        clock.call_after(30, lambda: fired.append("b"))
        clock.call_after(10, lambda: fired.append("a"))
        clock.call_after(50, lambda: fired.append("c"))
        clock.sleep(40)
        assert fired == ["a", "b"]
        clock.sleep(20)
        assert fired == ["a", "b", "c"]

    def test_ties_fire_in_registration_order(self):
        clock = Clock()
        fired = []
        clock.call_after(10, lambda: fired.append(1))
        clock.call_after(10, lambda: fired.append(2))
        clock.sleep(10)
        assert fired == [1, 2]

    def test_callback_sees_its_own_deadline(self):
        clock = Clock()
        seen = []
        clock.call_after(25, lambda: seen.append(clock.now_ms()))
        clock.sleep(100)
        assert seen == [25.0]

    def test_cancel(self):
        clock = Clock()
        fired = []
        handle = clock.call_after(10, lambda: fired.append(1))
        handle.cancel()
        clock.sleep(20)
        assert fired == []
        assert handle.cancelled

    def test_pending_count_excludes_cancelled(self):
        clock = Clock()
        h1 = clock.call_after(10, lambda: None)
        clock.call_after(20, lambda: None)
        h1.cancel()
        assert clock.pending_count() == 1

    def test_drain_runs_everything(self):
        clock = Clock()
        fired = []
        clock.call_after(1000, lambda: fired.append(1))
        clock.call_after(9999, lambda: fired.append(2))
        clock.drain()
        assert fired == [1, 2]

    def test_callback_scheduling_callback(self):
        clock = Clock()
        fired = []

        def first():
            fired.append("first")
            clock.call_after(5, lambda: fired.append("second"))

        clock.call_after(10, first)
        clock.sleep(20)
        assert fired == ["first", "second"]

    @given(st.lists(st.floats(min_value=0, max_value=1e6), max_size=20))
    def test_time_is_monotonic(self, durations):
        clock = Clock()
        last = clock.now_ms()
        for duration in durations:
            clock.sleep(duration)
            assert clock.now_ms() >= last
            last = clock.now_ms()


class TestTimeFormat:
    def test_epoch(self):
        assert _format_time(0) == "06-20 10:00:00.000"

    def test_milliseconds(self):
        assert _format_time(1234) == "06-20 10:00:01.234"

    def test_hours_roll(self):
        assert _format_time(3600 * 1000 * 3 + 61_500) == "06-20 13:01:01.500"

    def test_day_roll(self):
        # 14 hours past 10:00 crosses midnight.
        assert _format_time(14 * 3600 * 1000).startswith("06-21 00:")


class TestLogcat:
    def make(self, capacity=None):
        clock = Clock()
        return clock, Logcat(clock, capacity=capacity)

    def test_write_and_dump(self):
        clock, log = self.make()
        log.i("MyTag", "hello", pid=42)
        line = log.dump()
        assert "I MyTag: hello" in line
        assert "   42 " in line

    def test_multiline_messages_become_multiple_records(self):
        _, log = self.make()
        log.e("T", "line1\nline2")
        assert len(log) == 2

    def test_fatal_exception_block(self):
        _, log = self.make()
        exc = NullPointerException("null deref")
        exc.frames = [frame("com.a.B", "onCreate", 10)]
        log.fatal_exception("com.a", 77, exc)
        text = log.dump()
        assert "FATAL EXCEPTION: main" in text
        assert "Process: com.a, PID: 77" in text
        assert "java.lang.NullPointerException: null deref" in text
        assert "at com.a.B.onCreate(B.java:10)" in text
        assert all("E AndroidRuntime:" in line for line in log.dump_lines())

    def test_anr_block(self):
        _, log = self.make()
        log.anr("com.a", 5, "com.a/.Main", "blocked 9000ms")
        text = log.dump()
        assert "ANR in com.a (com.a/.Main)" in text
        assert "Reason: blocked 9000ms" in text

    def test_security_denial(self):
        _, log = self.make()
        log.security_denial(0, "broadcasting protected action X")
        assert "java.lang.SecurityException: Permission Denial:" in log.dump()

    def test_native_crash(self):
        _, log = self.make()
        log.native_crash(sigabrt("libsensorservice.so"), pid=3)
        text = log.dump()
        assert "Fatal signal 6 (SIGABRT)" in text
        assert "*** ***" in text

    def test_reboot_marker(self):
        _, log = self.make()
        log.reboot_marker("aging collapse")
        text = log.dump()
        assert "!!! SYSTEM REBOOT: aging collapse !!!" in text
        assert "Boot completed" in text

    def test_timestamps_use_clock(self):
        clock, log = self.make()
        clock.sleep(1500)
        log.i("T", "x")
        assert log.dump().startswith("06-20 10:00:01.500")

    def test_ring_buffer_capacity(self):
        _, log = self.make(capacity=10)
        for i in range(25):
            log.i("T", f"m{i}")
        assert len(log) == 10
        assert log.dropped == 15
        assert "m24" in log.dump()
        assert "m14" not in log.dump()

    def test_grep(self):
        _, log = self.make()
        log.i("T", "alpha")
        log.i("T", "beta")
        assert len(log.grep("alpha")) == 1

    def test_tail(self):
        _, log = self.make()
        for i in range(5):
            log.i("T", f"m{i}")
        assert len(log.tail(2)) == 2
        assert "m4" in log.tail(2)[-1]

    def test_clear(self):
        _, log = self.make()
        log.i("T", "x")
        log.clear()
        assert len(log) == 0
        assert log.dump() == ""

    def test_handled_exception_is_warning(self):
        _, log = self.make()
        exc = NullPointerException("caught it")
        exc.frames = [frame("com.a.B", "work", 3)]
        log.handled_exception("AppTag", 9, exc, context="while parsing")
        lines = log.dump_lines()
        assert any("W AppTag: while parsing: java.lang.NullPointerException" in l for l in lines)


class TestDroppedAccounting:
    """Eviction must be counted per appended line (regression).

    ``write()`` used to compute ``at_capacity`` once before the per-line
    loop, so a multi-line message crossing the capacity boundary (or filling
    the ring mid-call) undercounted ``dropped``.
    """

    def make(self, capacity=None):
        clock = Clock()
        return clock, Logcat(clock, capacity=capacity)

    def test_multiline_message_crossing_capacity_boundary(self):
        _, log = self.make(capacity=3)
        log.i("T", "a")
        log.i("T", "b")
        # Two records buffered; a 2-line message crosses the boundary:
        # line 1 fits, line 2 evicts one record.
        log.i("T", "c\nd")
        assert len(log) == 3
        assert log.dropped == 1

    def test_single_message_filling_ring_mid_call(self):
        _, log = self.make(capacity=3)
        # 5 lines into an empty 3-slot ring: lines 4 and 5 evict.
        log.i("T", "l1\nl2\nl3\nl4\nl5")
        assert len(log) == 3
        assert log.dropped == 2
        assert "l5" in log.dump()
        assert "l1" not in log.dump()

    def test_multiline_at_capacity_counts_every_line(self):
        _, log = self.make(capacity=2)
        log.i("T", "a")
        log.i("T", "b")
        log.i("T", "c\nd\ne")
        assert len(log) == 2
        assert log.dropped == 3

    def test_unbounded_buffer_never_drops(self):
        _, log = self.make()
        log.i("T", "a\nb\nc")
        assert log.dropped == 0

    @given(
        st.integers(1, 6),
        st.lists(st.integers(1, 5), max_size=12),
    )
    def test_every_line_past_capacity_is_one_drop(self, capacity, line_counts):
        _, log = self.make(capacity=capacity)
        lines = []
        for n, count in enumerate(line_counts):
            message = [f"m{n}.{k}" for k in range(count)]
            lines.extend(message)
            log.i("T", "\n".join(message))
        assert log.dropped == max(0, len(lines) - capacity)
        assert [r.message for r in log.records()] == lines[-capacity:]


class TestLogRecordContract:
    """A record is a tuple with named fields; the codec, the fold and the
    shard results rely on the surface pinned here."""

    def record(self, **overrides):
        fields = dict(time_ms=1500.0, pid=42, tid=43, level=Level.INFO, tag="T", message="hi")
        fields.update(overrides)
        return LogRecord(**fields)

    def test_keyword_construction_and_field_order(self):
        record = self.record()
        assert LogRecord._fields == ("time_ms", "pid", "tid", "level", "tag", "message")
        assert tuple(record) == (1500.0, 42, 43, Level.INFO, "T", "hi")
        assert (record.time_ms, record.pid, record.tid) == (1500.0, 42, 43)
        assert (record.level, record.tag, record.message) == (Level.INFO, "T", "hi")

    def test_render(self):
        assert self.record().render() == "06-20 10:00:01.500    42    43 I T: hi"

    def test_equality_and_hash(self):
        assert self.record() == self.record()
        assert hash(self.record()) == hash(self.record())
        assert self.record() != self.record(message="other")
        assert self.record() != self.record(level=Level.WARN)

    @pytest.mark.parametrize("field", LogRecord._fields)
    def test_fields_are_read_only(self, field):
        record = self.record()
        with pytest.raises(AttributeError):
            setattr(record, field, None)

    def test_no_new_attributes(self):
        with pytest.raises(AttributeError):
            self.record().extra = 1

    def test_write_builds_the_same_records(self):
        clock = Clock()
        log = Logcat(clock)
        clock.sleep(1500)
        log.write(Level.INFO, "T", "hi\nthere", pid=42, tid=43)
        assert list(log.records()) == [
            self.record(),
            self.record(message="there"),
        ]
        assert all(type(r) is LogRecord for r in log.records())


class TestAppendedMark:
    """``appended`` marks a point in the log that eviction, truncation and
    clears cannot move, so "records since the mark" stays exact."""

    def test_records_since_a_mark_on_a_full_ring(self):
        log = Logcat(Clock(), capacity=4)
        for i in range(4):
            log.i("T", f"old{i}")
        mark = log.appended
        log.i("T", "new0\nnew1")  # evicts two old records
        assert [r.message for r in log.records_since(mark)] == ["new0", "new1"]
        log.truncate_oldest(3)  # both remaining old records and new0
        assert [r.message for r in log.records_since(mark)] == ["new1"]
        assert log.appended == 6

    def test_clear_keeps_the_count(self):
        log = Logcat(Clock())
        log.i("T", "a")
        mark = log.appended
        log.clear()
        log.i("T", "b")
        assert log.appended == 2
        assert [r.message for r in log.records_since(mark)] == ["b"]
