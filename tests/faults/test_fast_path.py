"""The armed plane's fast path answers exactly what the eager algorithm did.

:class:`PlanExecution` builds streams only for armed kinds and skips every
stream while the clock is before its earliest pending event;
:meth:`RetryPolicy.run` builds its backoff schedule on the first transient
error.  These tests hold both to a reference: the eager execution kept
below (a stream and an RNG for every kind, every stream walked on every
query), and the schedule a policy computes up front.
"""

import math
import random
from typing import Dict, List, Optional

import pytest
from hypothesis import given, settings, strategies as st

from repro import faults
from repro.android.clock import Clock
from repro.android.device import Device
from repro.faults.errors import AdbSessionDropped
from repro.faults.plan import (
    BINDER_DEAD_OBJECT,
    BINDER_TOO_LARGE,
    COMPAT_MISSING_METHOD,
    COMPAT_SYNC_DELTA,
    CORRUPTIONS,
    INTERVAL_FIELDS,
    OUTAGE_SERVICES,
    FaultEvent,
    FaultKind,
    FaultPlan,
    PlanExecution,
)
from repro.faults.retry import MAX_ATTEMPTS_CAP, RetryPolicy
from tests.faults.test_retry import _policies

_KINDS = list(FaultKind)


class _EagerStream:
    """The eager per-kind stream: seeded and first gap drawn at build."""

    def __init__(self, plan: FaultPlan, kind: FaultKind) -> None:
        self.kind = kind
        self.rng = random.Random(f"{plan.seed}:{kind.value}")
        self.interval = plan.interval_for(kind)
        self.next = self.gap() if self.interval else None
        self.oneshots = sorted(
            (e for e in plan.oneshots if e.kind == kind), key=lambda e: e.at_ms
        )

    def gap(self) -> float:
        return self.rng.expovariate(1.0 / self.interval)

    def param(self) -> str:
        if self.kind is FaultKind.BINDER:
            return BINDER_DEAD_OBJECT if self.rng.random() < 0.5 else BINDER_TOO_LARGE
        if self.kind is FaultKind.SERVICE_OUTAGE:
            return self.rng.choice(OUTAGE_SERVICES)
        if self.kind is FaultKind.SERVICE_CORRUPT:
            return self.rng.choice(CORRUPTIONS)
        if self.kind is FaultKind.COMPAT_MISMATCH:
            return COMPAT_MISSING_METHOD if self.rng.random() < 0.5 else COMPAT_SYNC_DELTA
        return ""

    def take_due(self, now_ms: float, limit: Optional[int]) -> List[FaultEvent]:
        due: List[FaultEvent] = []
        while self.oneshots and self.oneshots[0].at_ms <= now_ms:
            if limit is not None and len(due) >= limit:
                return due
            due.append(self.oneshots.pop(0))
        while self.next is not None and self.next <= now_ms:
            if limit is not None and len(due) >= limit:
                return due
            due.append(FaultEvent(at_ms=self.next, kind=self.kind, param=self.param()))
            self.next += self.gap()
        return due

    def earliest(self) -> float:
        pending = [self.oneshots[0].at_ms] if self.oneshots else []
        if self.next is not None:
            pending.append(self.next)
        return min(pending, default=math.inf)


class _EagerExecution:
    def __init__(self, plan: FaultPlan) -> None:
        self.streams: Dict[FaultKind, _EagerStream] = {
            kind: _EagerStream(plan, kind) for kind in FaultKind
        }
        self.fired = 0

    def take_due(self, kind: FaultKind, now_ms: float, limit: Optional[int]) -> List[FaultEvent]:
        due = self.streams[kind].take_due(now_ms, limit)
        self.fired += len(due)
        return due

    def earliest(self) -> float:
        return min(stream.earliest() for stream in self.streams.values())


@st.composite
def _plans(draw) -> FaultPlan:
    armed = draw(st.sets(st.sampled_from(_KINDS)))
    intervals = {
        kind: draw(st.floats(min_value=10.0, max_value=5_000.0)) for kind in armed
    }
    oneshots = draw(
        st.lists(
            st.builds(
                FaultEvent,
                at_ms=st.floats(min_value=0.0, max_value=20_000.0),
                kind=st.sampled_from(_KINDS),
                param=st.sampled_from(("", "x")),
            ),
            max_size=6,
        )
    )
    return FaultPlan(
        seed=draw(st.integers(min_value=0, max_value=2**32)),
        oneshots=tuple(oneshots),
        **{field: intervals.get(kind) for kind, field in INTERVAL_FIELDS.items()},
    )


_queries = st.lists(
    st.tuples(
        st.sampled_from(_KINDS),
        # Steps of zero repeat a query time; the largest ones skip past many
        # pending events at once.
        st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=3_000.0)),
        st.sampled_from((None, None, 0, 1, 2)),
    ),
    max_size=60,
)


class TestTakeDueMatchesEager:
    @given(plan=_plans(), queries=_queries)
    @settings(max_examples=300, deadline=None)
    def test_same_events_for_any_plan_and_query_sequence(self, plan, queries):
        fast, eager = PlanExecution(plan), _EagerExecution(plan)
        now = 0.0
        for kind, step, limit in queries:
            now += step
            assert fast.take_due(kind, now, limit=limit) == eager.take_due(kind, now, limit)
            # The cursor is exact, not merely a lower bound: a stale one
            # would send hooks into the streams before anything is due.
            assert fast.next_due_ms == eager.earliest()
        # Draining everything left up to a far horizon still agrees.
        for kind in _KINDS:
            assert fast.take_due(kind, now + 50_000.0) == eager.take_due(kind, now + 50_000.0, None)
        assert fast.fired == eager.fired

    @given(plan=_plans())
    @settings(max_examples=100, deadline=None)
    def test_streams_only_for_armed_kinds(self, plan):
        armed = {kind for kind in _KINDS if plan.interval_for(kind) is not None}
        armed |= {event.kind for event in plan.oneshots}
        assert set(PlanExecution(plan).streams) == armed

    def test_no_stream_is_walked_before_the_earliest_event(self, monkeypatch):
        plan = FaultPlan(seed=4, binder_every_ms=1_000.0, lmkd_every_ms=5_000.0)
        execution = PlanExecution(plan)
        walks = []
        for stream in execution.streams.values():
            monkeypatch.setattr(
                stream,
                "take_due",
                lambda now, limit=None, _walk=stream.take_due: walks.append(now)
                or _walk(now, limit),
            )
        first = execution.next_due_ms
        for kind in _KINDS:
            assert execution.take_due(kind, first - 1e-6) == []
        assert walks == []
        (kind,) = [k for k, s in execution.streams.items() if s.due_ms == first]
        assert [e.at_ms for e in execution.take_due(kind, first)] == [first]
        assert walks == [first]


class TestHooksAnswerInOneComparison:
    def test_dispatches_before_the_first_due_event_never_ask_the_schedule(
        self, monkeypatch
    ):
        from repro.apps.catalog import build_wear_corpus
        from repro.qgj.campaigns import Campaign
        from repro.qgj.fuzzer import FuzzConfig, FuzzerLibrary
        from repro.wear.device import WearDevice

        # Every kind the dispatch path polls is armed, none due for hours.
        plan = FaultPlan(
            seed=5,
            binder_every_ms=3_600_000.0,
            lmkd_every_ms=3_600_000.0,
            service_outage_every_ms=3_600_000.0,
            service_corrupt_every_ms=3_600_000.0,
            system_restart_every_ms=3_600_000.0,
        )
        asked = []
        take_due = PlanExecution.take_due

        def spy(self, kind, now_ms, limit=None):
            asked.append(kind)
            return take_due(self, kind, now_ms, limit)

        monkeypatch.setattr(PlanExecution, "take_due", spy)
        with faults.session(plan) as plane:
            watch = WearDevice("one-comparison")
            build_wear_corpus(seed=2018).install(watch)
            info = watch.packages.get_package("com.runmate.wear").activities()[1]
            dispatches = watch.activity_manager.dispatch_count
            result = FuzzerLibrary(watch).fuzz_component(
                info, Campaign.B, FuzzConfig(max_intents_per_component=20)
            )
            execution = plane.execution_for(watch.clock)
        assert result.sent == 20
        assert watch.activity_manager.dispatch_count - dispatches >= 20
        assert watch.clock.now_ms() < execution.next_due_ms
        assert asked == []


@pytest.fixture
def seeds(monkeypatch):
    """Every ``random.Random`` seeding from here on, by its seed."""
    seen = []
    seed = random.Random.seed

    def counting(self, a=None, *args, **kwargs):
        seen.append(a)
        return seed(self, a, *args, **kwargs)

    monkeypatch.setattr(random.Random, "seed", counting)
    return seen


class TestEmptyPlanSeedsNothing:
    def test_execution_of_an_empty_plan(self, seeds):
        execution = PlanExecution(FaultPlan(seed=9))
        for now in (0.0, 1e3, 1e6, 1e9):
            for kind in _KINDS:
                assert execution.take_due(kind, now) == []
        assert execution.streams == {}
        assert seeds == []

    def test_hooks_under_an_empty_plan(self, seeds):
        device = Device("watch")
        before = len(seeds)
        plane = faults.FaultPlane(FaultPlan())
        clock = device.clock
        for _ in range(3):
            clock.sleep(60_000.0)
            plane.on_adb(device)
            plane.on_transact(clock, "android.app.IActivityManager")
            plane.on_process_table(device.processes)
            plane.on_system_service(device, "activity")
            plane.on_resolve(device)
            plane.check_service(clock, "sensor")
            assert not plane.take_corruption(clock, "drop_listener")
            assert not plane.take_compat_delta(clock)
        assert len(seeds) == before

    def test_lmkd_victim_rng_is_seeded_on_first_use(self, seeds):
        execution = PlanExecution(FaultPlan(seed=2, lmkd_every_ms=1_000.0))
        assert seeds == ["2:lmkd_kill"]
        assert execution.victim_rng is execution.victim_rng
        assert seeds == ["2:lmkd_kill", "2:lmkd-victim"]
        expected = random.Random("2:lmkd-victim").random()
        assert execution.victim_rng.random() == expected


class _SleepLog(Clock):
    def __init__(self) -> None:
        super().__init__()
        self.slept: List[float] = []

    def sleep(self, ms: float) -> None:
        self.slept.append(ms)
        super().sleep(ms)


class TestRetryBuildsScheduleOnFailure:
    def test_first_attempt_success_never_builds_the_schedule(self, monkeypatch):
        calls = []
        schedule = RetryPolicy.schedule
        monkeypatch.setattr(
            RetryPolicy, "schedule", lambda self, key=(): calls.append(key) or schedule(self, key)
        )
        clock = _SleepLog()
        assert RetryPolicy(max_attempts=5).run(lambda: "ok", clock, key=("k", 1)) == "ok"
        assert calls == []
        assert clock.slept == []

    @given(policy=_policies, failures=st.integers(min_value=1, max_value=MAX_ATTEMPTS_CAP))
    @settings(max_examples=150, deadline=None)
    def test_failures_sleep_exactly_the_schedule(self, policy, failures):
        key = ("segment", failures)
        clock = _SleepLog()
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) <= failures:
                raise AdbSessionDropped("gone")
            return "ok"

        retried = min(failures, policy.max_attempts - 1)
        if failures < policy.max_attempts:
            assert policy.run(flaky, clock, key=key) == "ok"
        else:
            with pytest.raises(AdbSessionDropped):
                policy.run(flaky, clock, key=key)
        assert clock.slept == list(policy.schedule(key)[:retried])
