"""QGJ-UI: the mutational UI-event fuzzer (the paper's Fig. 1b).

Pipeline, as in Section III-E:

    ⑤ Monkey runs on the target device, generating UI events (some of which
      are intents, e.g. app switches).
    ⑥ The monkey log is parsed to recover the events.
    ⑦ Each event is mutated -- **semi-valid** (an argument is replaced with
      another valid value *observed for that argument during the
      experiment*) or **random** (arguments replaced with a random ASCII
      string or numeric value, depending on type; e.g.
      ``input tap -8803.85 4668.17``).
    ⑧ The mutated events are replayed through ``adb shell`` utilities
      (``input``, ``am``, ``pm``).

Exception/crash accounting matches Table V's columns: every replayed event
is one *injected event*; exceptions are tool-handled exceptions plus
app-logged and fatal exceptions found in the device log (SecurityExceptions
excluded, as in the paper's exception accounting); crashes are fatal
app-process deaths.
"""

from __future__ import annotations

import contextlib
import dataclasses
import random
import string
from collections import defaultdict
from typing import Dict, List, Optional, Sequence

from repro.android.device import Device
from repro.faults.retry import RetryPolicy
from repro.qgj.monkey import Monkey, MonkeyEvent, parse_monkey_log
from repro.telemetry.metrics import UI_CRASHES, UI_EVENTS, UI_EXCEPTIONS

_RANDOM_ASCII = string.ascii_letters + string.digits + "$@!%.:#?&=_-"


class MutationMode:
    SEMI_VALID = "semi-valid"
    RANDOM = "random"

    ALL = (SEMI_VALID, RANDOM)


@dataclasses.dataclass
class UiInjectionResult:
    """Table V's row for one mutation mode."""

    mode: str
    injected_events: int = 0
    tool_exceptions: int = 0
    app_exceptions: int = 0
    crashes: int = 0
    reached_app: int = 0

    @property
    def exceptions_raised(self) -> int:
        return self.tool_exceptions + self.app_exceptions

    def exception_rate(self) -> float:
        if self.injected_events == 0:
            return 0.0
        return self.exceptions_raised / self.injected_events

    def crash_rate(self) -> float:
        if self.injected_events == 0:
            return 0.0
        return self.crashes / self.injected_events


class EventMutator:
    """Implements the two mutation strategies over a parsed event pool."""

    def __init__(self, events: Sequence[MonkeyEvent], seed: int = 0) -> None:
        self._rng = random.Random(seed)
        #: Observed valid values per (kind, slot) -- the semi-valid pool.
        self._observed: Dict[tuple, List[object]] = defaultdict(list)
        for event in events:
            for slot, _ in event.schema():
                self._observed[(event.kind, slot)].append(event.args[slot])

    def mutate(self, event: MonkeyEvent, mode: str) -> MonkeyEvent:
        """Mutate every argument of *event*, per the paper's Section III-E.

        Semi-valid replaces each argument with "another valid value for that
        argument that had been observed during the experiment"; random
        replaces them "with a random ASCII string or a float value
        (depending on type)" -- which is why the paper's example random tap
        (``input tap -8803.85 4668.17``) lands nowhere near the screen.
        """
        mutant = event.copy()
        if mode == MutationMode.SEMI_VALID:
            for slot, _slot_type in event.schema():
                pool = self._observed[(event.kind, slot)]
                if pool:
                    mutant.args[slot] = self._rng.choice(pool)
            return mutant
        if mode == MutationMode.RANDOM:
            for slot, slot_type in event.schema():
                mutant.args[slot] = self._random_value(slot_type)
            return mutant
        raise ValueError(f"unknown mutation mode: {mode}")

    def _random_value(self, slot_type: type) -> object:
        if slot_type is float:
            # The paper's example: input tap -8803.85 4668.17
            return round(self._rng.uniform(-10_000, 10_000), 2)
        if slot_type is int:
            return self._rng.randint(-(2**31), 2**31 - 1)
        length = self._rng.randint(4, 20)
        return "".join(self._rng.choice(_RANDOM_ASCII) for _ in range(length))


def event_to_shell(event: MonkeyEvent) -> str:
    """Lower one (possibly mutated) event to an adb shell command line."""
    a = event.args
    if event.kind == "touch":
        return f"input tap {a['x']} {a['y']}"
    if event.kind == "swipe":
        return f"input swipe {a['x1']} {a['y1']} {a['x2']} {a['y2']}"
    if event.kind == "trackball":
        return f"input trackball roll {a['dx']} {a['dy']}"
    if event.kind in ("keyevent_nav", "keyevent_sys"):
        return f"input keyevent {a['code']}"
    if event.kind == "text":
        return f"input text '{a['text']}'"
    if event.kind == "appswitch":
        return (
            "am start -a android.intent.action.MAIN"
            " -c android.intent.category.LAUNCHER"
            f" -n '{a['component']}'"
        )
    if event.kind == "permission":
        return f"pm grant '{a['package']}' '{a['permission']}'"
    raise ValueError(f"unknown kind: {event.kind}")


class QGJUi:
    """The QGJ-UI driver: monkey → parse → mutate → replay via adb."""

    def __init__(self, device: Device, seed: int = 0) -> None:
        self._device = device
        self._seed = seed

    def run(
        self,
        event_count: int,
        modes: Sequence[str] = MutationMode.ALL,
        pacing_ms: float = 20.0,
    ) -> Dict[str, UiInjectionResult]:
        """Run the full pipeline once per mutation mode.

        The same base event stream (same monkey seed) feeds both modes,
        matching the paper's identical per-mode event counts (41,405 each).
        """
        monkey = Monkey(self._device, seed=self._seed)
        log_text = monkey.run(event_count)
        events = parse_monkey_log(log_text)
        results: Dict[str, UiInjectionResult] = {}
        for mode in modes:
            results[mode] = self._replay(events, mode, pacing_ms)
        return results

    def _replay(
        self, events: Sequence[MonkeyEvent], mode: str, pacing_ms: float
    ) -> UiInjectionResult:
        # str.__hash__ is salted per process; derive the per-mode seed from
        # the mode's bytes so runs are reproducible across interpreters.
        mode_salt = sum(mode.encode())
        mutator = EventMutator(events, seed=self._seed + mode_salt)
        adb = self._device.adb
        logcat = self._device.logcat
        result = UiInjectionResult(mode=mode)
        log_mark = logcat.appended
        t = self._device.runtime.telemetry
        profiler = t.profiler
        with contextlib.ExitStack() as stack:
            if t.enabled:
                stack.enter_context(
                    t.tracer.span("ui_replay", clock=self._device.clock, mode=mode)
                )
            if profiler.enabled:
                # One phase for the whole replay: mutation + shell lowering
                # is "ui" self-time; dispatch and logging nest beneath it.
                profiler.enter("ui")
                stack.callback(profiler.exit)
            plane = self._device.runtime.faults
            retry = RetryPolicy()
            for event in events:
                mutant = mutator.mutate(event, mode)
                shell_line = event_to_shell(mutant)
                if plane.armed:
                    # A dropped adb session loses this event's shell; the
                    # harness reconnects with backoff and re-issues it.
                    shell_result = retry.run(
                        lambda line=shell_line: adb.shell(line),
                        self._device.clock,
                        key=("ui", mode, result.injected_events),
                    )
                else:
                    shell_result = adb.shell(shell_line)
                result.injected_events += 1
                if shell_result.reached_app:
                    result.reached_app += 1
                if shell_result.caused_crash:
                    result.crashes += 1
                if shell_result.tool_exception is not None:
                    if not shell_result.caused_crash and not _is_security(
                        shell_result.tool_exception
                    ):
                        result.tool_exceptions += 1
                self._device.clock.sleep(pacing_ms)
        result.app_exceptions = _count_app_exceptions(logcat, log_mark)
        if t.enabled:
            self._count_replay(t, events, result)
        return result

    @staticmethod
    def _count_replay(
        t, events: Sequence[MonkeyEvent], result: UiInjectionResult
    ) -> None:
        metrics = t.metrics
        injected = metrics.counter(
            UI_EVENTS, "Mutated UI events replayed through adb shell.", ("mode", "kind")
        )
        tally: Dict[str, int] = defaultdict(int)
        for event in events:
            tally[event.kind] += 1
        for kind, n in sorted(tally.items()):
            injected.labels(mode=result.mode, kind=kind).inc(n)
        metrics.counter(
            UI_CRASHES, "App crashes caused by replayed UI events.", ("mode",)
        ).labels(mode=result.mode).inc(result.crashes)
        exceptions = metrics.counter(
            UI_EXCEPTIONS,
            "Exceptions raised by replayed UI events (tool- or app-side).",
            ("mode", "source"),
        )
        exceptions.labels(mode=result.mode, source="tool").inc(result.tool_exceptions)
        exceptions.labels(mode=result.mode, source="app").inc(result.app_exceptions)


def _is_security(throwable) -> bool:
    return "SecurityException" in type(throwable).JAVA_NAME


def _count_app_exceptions(logcat, mark: int) -> int:
    """Count app-side exception log entries (handled + fatal) still in the
    buffer among those appended since *mark* (a :attr:`Logcat.appended`).

    SecurityExceptions are excluded, consistent with the paper's exception
    accounting ("some intents are reserved for privileged OS processes …
    this is the specified and secure behavior").
    """
    count = 0
    for record in logcat.records_since(mark):
        message = record.message
        if "SecurityException" in message:
            continue
        if "Exception" in message and "Caused by" not in message and "\tat " not in message:
            if message.startswith(("FATAL EXCEPTION", "Process:")):
                continue
            count += 1
    return count


def render_table5(results: Dict[str, UiInjectionResult]) -> str:
    """Render the Table V layout from a QGJ-UI run."""
    lines = [
        f"{'Experiment':<12} {'#Injected Events':>17} {'Exceptions Raised':>20} {'Crashes':>14}"
    ]
    for mode in (MutationMode.SEMI_VALID, MutationMode.RANDOM):
        if mode not in results:
            continue
        r = results[mode]
        lines.append(
            f"{r.mode:<12} {r.injected_events:>17} "
            f"{r.exceptions_raised:>12} ({r.exception_rate():.1%}) "
            f"{r.crashes:>7} ({r.crash_rate():.2%})"
        )
    return "\n".join(lines)
