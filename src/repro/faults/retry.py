"""Retry with exponential backoff and seeded jitter, on the virtual clock.

Transient infrastructure faults (:data:`repro.faults.errors.TRANSIENT_ERRORS`)
are retried; everything else propagates untouched, so the study's app-level
outcome classes (``SecurityException``, ``ActivityNotFoundException``, and
the behaviours read back from logcat) are never absorbed by the harness.

The backoff schedule is a pure function of ``(policy, key)``:

* **monotone** -- each delay is at least the previous one (jitter is applied
  first, then a running maximum);
* **bounded** -- no delay exceeds ``max_delay_ms * (1 + jitter)``;
* **deterministic** -- identical seeds and keys yield identical schedules,
  which is what makes a faulty run replayable, and a re-run shard exact,
  without carrying hidden RNG state.

All delays are *virtual* milliseconds: retrying sleeps the device clock, so
backoff interacts with ANR windows, aging decay, and the fault streams
exactly as wall-clock backoff would on hardware.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Callable, Optional, Tuple, TypeVar

from repro import telemetry
from repro.faults.errors import TRANSIENT_ERRORS
from repro.telemetry.metrics import RETRIES, RETRY_BACKOFF

T = TypeVar("T")

#: Upper bound on schedule length, a guard against misconfiguration.
MAX_ATTEMPTS_CAP = 16


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff + seeded jitter for transient transport errors."""

    max_attempts: int = 4
    base_delay_ms: float = 50.0
    multiplier: float = 2.0
    max_delay_ms: float = 2_000.0
    jitter: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if not 1 <= self.max_attempts <= MAX_ATTEMPTS_CAP:
            raise ValueError(
                f"max_attempts must be in [1, {MAX_ATTEMPTS_CAP}], got {self.max_attempts}"
            )
        if self.base_delay_ms <= 0 or self.max_delay_ms < self.base_delay_ms:
            raise ValueError(
                f"need 0 < base_delay_ms <= max_delay_ms, got "
                f"{self.base_delay_ms}/{self.max_delay_ms}"
            )
        if self.multiplier < 1:
            raise ValueError(f"multiplier must be >= 1, got {self.multiplier}")
        if not 0 <= self.jitter <= 1:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")

    def schedule(self, key: Tuple = ()) -> Tuple[float, ...]:
        """The backoff delays (virtual ms) between successive attempts.

        *key* salts the jitter so different call sites decorrelate while the
        whole schedule stays a pure function of ``(policy, key)``.
        """
        rng = random.Random(repr((self.seed, "backoff", key)))
        delays = []
        floor = 0.0
        for attempt in range(self.max_attempts - 1):
            delay = min(self.base_delay_ms * self.multiplier**attempt, self.max_delay_ms)
            delay *= 1.0 + self.jitter * rng.random()
            floor = max(floor, delay)
            delays.append(floor)
        return tuple(delays)

    def run(
        self,
        fn: Callable[[], T],
        clock,
        key: Tuple = (),
        on_retry: Optional[Callable[[int, float, BaseException], None]] = None,
        telemetry_handle=None,
    ) -> T:
        """Call *fn*, retrying transient errors with backoff on *clock*.

        Raises the last transient error once attempts are exhausted; any
        non-transient exception propagates immediately.  *telemetry_handle*
        scopes the retry counters (a farm shard's handle); by default the
        process-wide handle is used.  The schedule is built on the first
        transient error, so a call that succeeds at once never pays for it.
        """
        delays: Tuple[float, ...] = ()
        for attempt in range(self.max_attempts):
            try:
                return fn()
            except TRANSIENT_ERRORS as exc:
                if attempt + 1 >= self.max_attempts:
                    raise
                if not delays:
                    delays = self.schedule(key)
                delay = delays[attempt]
                self._count_retry(exc, delay, telemetry_handle)
                if on_retry is not None:
                    on_retry(attempt, delay, exc)
                clock.sleep(delay)
        raise AssertionError("unreachable")  # pragma: no cover

    @staticmethod
    def _count_retry(exc: BaseException, delay: float, telemetry_handle=None) -> None:
        t = telemetry_handle if telemetry_handle is not None else telemetry.get()
        if not t.enabled:
            return
        t.metrics.counter(
            RETRIES,
            "Transient transport errors retried by the QGJ harness, by class.",
            ("error",),
        ).labels(error=type(exc).__name__).inc()
        t.metrics.histogram(
            RETRY_BACKOFF,
            "Backoff slept before a retry (virtual ms).",
        ).observe(delay)
