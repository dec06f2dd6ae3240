"""Tests for the process table and main-thread execution."""

import pytest

from repro.android.clock import Clock
from repro.android.jtypes import NullPointerException
from repro.android.process import (
    MainThreadTask,
    ProcessRecord,
    ProcessState,
    ProcessTable,
)


@pytest.fixture
def clock():
    return Clock()


@pytest.fixture
def table(clock):
    return ProcessTable(clock)


class TestProcessRecord:
    def test_unique_pids(self, clock):
        a = ProcessRecord("a", "a", clock)
        b = ProcessRecord("b", "b", clock)
        assert a.pid != b.pid

    def test_task_advances_clock(self, clock):
        proc = ProcessRecord("p", "p", clock)
        proc.run_main_task(MainThreadTask("work", lambda: None, duration_ms=42))
        assert clock.now_ms() == 42

    def test_uncaught_throwable_crashes_process(self, clock):
        proc = ProcessRecord("p", "p", clock)

        def boom():
            raise NullPointerException("x")

        thrown = proc.run_main_task(MainThreadTask("boom", boom))
        assert isinstance(thrown, NullPointerException)
        assert proc.state == ProcessState.CRASHED
        assert not proc.alive
        assert len(proc.crashes) == 1
        assert proc.crashes[0].task_description == "boom"

    def test_run_on_dead_process_rejected(self, clock):
        proc = ProcessRecord("p", "p", clock)
        proc.kill()
        with pytest.raises(RuntimeError):
            proc.run_main_task(MainThreadTask("x", lambda: None))

    def test_post_and_drain(self, clock):
        proc = ProcessRecord("p", "p", clock)
        results = []
        proc.post(MainThreadTask("one", lambda: results.append(1)))
        proc.post(MainThreadTask("two", lambda: results.append(2)))
        assert proc.drain_queue() is None
        assert results == [1, 2]

    def test_crash_clears_queue(self, clock):
        proc = ProcessRecord("p", "p", clock)
        results = []

        def boom():
            raise NullPointerException("x")

        proc.post(MainThreadTask("boom", boom))
        proc.post(MainThreadTask("after", lambda: results.append(1)))
        thrown = proc.drain_queue()
        assert thrown is not None
        assert results == []

    def test_death_recipients_notified_once(self, clock):
        proc = ProcessRecord("p", "p", clock)
        deaths = []
        proc.link_to_death(deaths.append)
        proc.kill()
        proc.kill()  # idempotent
        assert deaths == [proc]

    def test_anr_recording(self, clock):
        proc = ProcessRecord("p", "p", clock)
        info = proc.record_anr("slow", blocked_for_ms=8000)
        assert proc.anrs == [info]
        assert info.blocked_for_ms == 8000


class TestProcessTable:
    def test_get_or_start_reuses(self, table):
        a = table.get_or_start("com.a", "com.a")
        b = table.get_or_start("com.a", "com.a")
        assert a is b
        assert table.total_started == 1

    def test_dead_process_not_returned(self, table):
        proc = table.get_or_start("com.a", "com.a")
        proc.kill()
        assert table.get("com.a") is None
        fresh = table.get_or_start("com.a", "com.a")
        assert fresh is not proc
        assert fresh.alive

    def test_kill_package_kills_all_its_processes(self, table):
        table.get_or_start("com.a", "com.a")
        table.get_or_start("com.a:remote", "com.a")
        table.get_or_start("com.b", "com.b")
        assert table.kill_package("com.a") == 2
        assert table.get("com.b") is not None

    def test_clear_for_reboot(self, table):
        proc = table.get_or_start("com.a", "com.a")
        table.clear()
        assert not proc.alive
        assert table.live_processes() == []
