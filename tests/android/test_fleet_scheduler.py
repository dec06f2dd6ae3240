"""Clock edge cases and the FleetScheduler's earliest-deadline contract.

The fleet kernel leans on two Clock behaviours that a blocking run never
exercises hard: callbacks scheduled re-entrantly at exactly the firing
deadline (the ambient duty cycle re-arming itself), and cancelled entries
piling up in the heap (watchdogs armed and abandoned by the thousand over
a long fleet run).  Both are pinned here, alongside the scheduler's
earliest-deadline-first semantics.
"""

import weakref

import pytest

from repro.android.clock import _COMPACT_MIN_QUEUE, Clock, FleetScheduler


class TestReentrantScheduling:
    def test_same_deadline_reentrant_callback_fires_in_seq_order(self):
        clock = Clock()
        order = []

        def first():
            order.append("first")
            # Scheduled at exactly the firing deadline: lands *behind* the
            # in-flight callback (same deadline, higher seq) and still
            # fires within this same advance.
            clock.call_at(clock.now_ms(), lambda: order.append("nested"))

        clock.call_at(100.0, first)
        clock.call_at(100.0, lambda: order.append("second"))
        clock.advance_to(100.0)
        assert order == ["first", "second", "nested"]
        assert clock.now_ms() == 100.0

    def test_reentrant_chain_terminates_at_later_deadlines(self):
        clock = Clock()
        fired = []

        def rearm():
            fired.append(clock.now_ms())
            if len(fired) < 3:
                clock.call_after(10.0, rearm)

        clock.call_after(10.0, rearm)
        clock.advance_to(100.0)
        assert fired == [10.0, 20.0, 30.0]

    def test_callback_observes_its_own_deadline_as_now(self):
        clock = Clock()
        seen = []
        clock.call_at(40.0, lambda: seen.append(clock.now_ms()))
        clock.call_at(70.0, lambda: seen.append(clock.now_ms()))
        clock.advance_to(1_000.0)
        assert seen == [40.0, 70.0]
        assert clock.now_ms() == 1_000.0


class TestCancellation:
    def test_cancel_below_compaction_threshold_leaves_entries_marked(self):
        clock = Clock()
        handles = [clock.call_at(10.0 * i, lambda: None) for i in range(6)]
        assert len(handles) < _COMPACT_MIN_QUEUE
        for handle in handles[:4]:
            handle.cancel()
        # 4 of 6 cancelled would trigger compaction on a big queue, but a
        # tiny one is cheaper to let advance_to/drain reap lazily.
        assert clock.cancelled_count() == 4
        assert clock.pending_count() == 2

    def test_compaction_once_cancelled_entries_dominate(self):
        clock = Clock()
        handles = [clock.call_at(float(i), lambda: None) for i in range(10)]
        for handle in handles[:5]:
            handle.cancel()
        # 5 of 10: not a strict majority, still lazily marked.
        assert clock.cancelled_count() == 5
        handles[5].cancel()
        # 6 of 10: majority -- the heap is rebuilt with live entries only.
        assert clock.cancelled_count() == 0
        assert clock.pending_count() == 4
        clock.advance_to(20.0)
        assert clock.pending_count() == 0

    def test_double_cancel_is_idempotent(self):
        clock = Clock()
        handle = clock.call_at(5.0, lambda: None)
        clock.call_at(6.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert handle.cancelled
        assert clock.cancelled_count() == 1
        assert clock.pending_count() == 1

    def test_cancelled_callback_never_fires_and_is_reaped(self):
        clock = Clock()
        fired = []
        doomed = clock.call_at(50.0, lambda: fired.append("dead"))
        clock.call_at(60.0, lambda: fired.append("live"))
        doomed.cancel()
        clock.advance_to(100.0)
        assert fired == ["live"]
        assert clock.cancelled_count() == 0
        assert clock.pending_count() == 0

    def test_drain_reaps_cancelled_heads(self):
        clock = Clock()
        fired = []
        doomed = clock.call_at(10.0, lambda: fired.append("dead"))
        clock.call_at(20.0, lambda: fired.append("live"))
        doomed.cancel()
        clock.drain()
        assert fired == ["live"]
        assert clock.pending_count() == 0
        assert clock.cancelled_count() == 0

    def test_cancel_from_inside_a_callback(self):
        # The low-battery park cancels the pending ambient toggle from a
        # clock callback; the cancelled toggle must not fire afterwards.
        clock = Clock()
        fired = []
        toggle = clock.call_at(30.0, lambda: fired.append("toggle"))
        clock.call_at(20.0, lambda: toggle.cancel())
        clock.advance_to(100.0)
        assert fired == []
        assert clock.pending_count() == 0

    def test_cancel_releases_the_callback(self):
        # A timer that keeps its own handle (the ambient duty cycle's shape)
        # is freed once cancelled, though the clock and the handle live on.
        class Timer:
            def fire(self):
                pass

        clock = Clock()
        timer = Timer()
        timer.handle = handle = clock.call_at(5.0, timer.fire)
        ref = weakref.ref(timer)
        del timer
        handle.cancel()
        assert ref() is None

    def test_cancel_all_runs_nothing_and_releases_every_callback(self):
        clock = Clock()
        fired = []
        handles = [clock.call_at(10.0 * i, lambda i=i: fired.append(i)) for i in range(12)]
        clock.advance_to(25.0)
        clock.cancel_all()
        assert clock.now_ms() == 25.0
        assert clock.pending_count() == clock.cancelled_count() == 0
        assert all(handle.cancelled for handle in handles[3:])
        clock.advance_to(1_000.0)
        assert fired == [0, 1, 2]


def _ticker(key, clock, deadlines, trace):
    for deadline in deadlines:
        yield deadline
        trace.append((key, clock.now_ms()))
    return f"{key}-done"


class TestFleetScheduler:
    def test_earliest_deadline_interleaving(self):
        sched = FleetScheduler()
        trace = []
        a_clock, b_clock = Clock(), Clock()
        sched.add("a", a_clock, _ticker("a", a_clock, [10.0, 30.0], trace))
        sched.add("b", b_clock, _ticker("b", b_clock, [5.0, 40.0], trace))
        results = sched.run()
        # Resumed strictly by earliest next deadline across the fleet,
        # each on its own clock.
        assert trace == [("b", 5.0), ("a", 10.0), ("a", 30.0), ("b", 40.0)]
        assert results == {"a": "a-done", "b": "b-done"}
        assert sched.active == 0
        assert sched.peak_active == 2
        assert sched.steps == 4

    def test_ties_break_by_admission_order(self):
        sched = FleetScheduler()
        trace = []
        clocks = {key: Clock() for key in "abc"}
        for key in ("c", "a", "b"):
            sched.add(key, clocks[key], _ticker(key, clocks[key], [7.0], trace))
        sched.run()
        assert [key for key, _ in trace] == ["c", "a", "b"]

    def test_clocks_stay_independent(self):
        sched = FleetScheduler()
        trace = []
        fast, slow = Clock(), Clock()
        sched.add("fast", fast, _ticker("fast", fast, [1.0, 2.0, 3.0], trace))
        sched.add("slow", slow, _ticker("slow", slow, [1_000.0], trace))
        sched.run()
        assert fast.now_ms() == 3.0
        assert slow.now_ms() == 1_000.0

    def test_duplicate_key_rejected(self):
        sched = FleetScheduler()
        clock = Clock()
        sched.add("pair", clock, _ticker("pair", clock, [1.0], []))
        with pytest.raises(ValueError, match="duplicate"):
            sched.add("pair", Clock(), _ticker("pair", Clock(), [1.0], []))

    def test_yielding_a_past_deadline_is_an_error(self):
        sched = FleetScheduler()
        clock = Clock(start_ms=100.0)

        def stale():
            yield 50.0

        with pytest.raises(ValueError, match="past"):
            sched.add("stale", clock, stale())

    def test_yielding_now_is_allowed(self):
        # Guided pairs yield at round boundaries without sleeping; a
        # deadline equal to the pair's current time must be accepted.
        sched = FleetScheduler()
        clock = Clock()

        def stationary():
            yield clock.now_ms()
            yield clock.now_ms()
            return "ok"

        sched.add("s", clock, stationary())
        assert sched.run() == {"s": "ok"}

    def test_task_finishing_on_admission_records_its_result(self):
        sched = FleetScheduler()

        def instant():
            return "done"
            yield  # pragma: no cover - makes this a generator

        sched.add("i", Clock(), instant())
        assert sched.results() == {"i": "done"}
        assert sched.active == 0
        assert sched.peak_active == 1

    def test_run_some_bounds_resumptions_and_reports_remaining_work(self):
        sched = FleetScheduler()
        clock = Clock()
        sched.add("t", clock, _ticker("t", clock, [1.0, 2.0, 3.0], []))
        assert sched.run_some(2) is True
        assert sched.steps == 2
        assert sched.run_some(10) is False
        assert sched.steps == 3
        assert sched.results() == {"t": "t-done"}

    def test_scheduler_advances_the_tasks_clock_before_resuming(self):
        sched = FleetScheduler()
        clock = Clock()
        fired = []
        clock.call_at(5.0, lambda: fired.append(clock.now_ms()))

        def sleeper():
            yield 10.0
            return clock.now_ms()

        sched.add("sleeper", clock, sleeper())
        results = sched.run()
        # Advancing to the yielded deadline ran the due clock callback
        # first, exactly as a blocking clock.sleep would have.
        assert fired == [5.0]
        assert results == {"sleeper": 10.0}
