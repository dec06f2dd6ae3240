"""The in-memory study queue over the WAL: admission, leases, retries.

The WAL is the queue's truth; this module is the state machine that edits
it.  Every transition appends to the WAL *first* and mutates memory only
after the append returned (write-ahead), so the in-memory picture is never
ahead of what a crash would preserve.

Three robustness rules govern it:

* **Admission control** -- the queue is bounded.  A submission past
  *capacity* raises :class:`AdmissionError` -- an explicit backpressure
  rejection, before anything touches the WAL -- rather than growing an
  unbounded backlog the daemon can never drain.  Resubmitting a known
  fingerprint is always admitted (it costs nothing: completed studies are
  answered from the store, pending ones return their current state).
* **Lease liveness on the monotonic clock** -- a claim grants a lease with
  a wall-clock-style deadline and a heartbeat, both measured with
  ``time.monotonic()`` and both compared only against the same clock, so
  an NTP step can neither spuriously expire a healthy lease nor keep a
  dead one alive.  Nothing clock-derived is persisted: across a restart,
  a lease is dead because its owning incarnation is (see
  :meth:`StudyQueue.recover`), not because a timestamp says so.
* **Bounded retries, poison quarantine** -- an expired, failed, or
  reclaimed lease requeues the study until its granted-lease count reaches
  *max_attempts*; after that the study is quarantined as poison, its error
  recorded, and the queue completes the rest of the backlog degraded --
  one pathological study must never wedge the service.
"""

from __future__ import annotations

import dataclasses
import functools
import threading
import time
from typing import Callable, Dict, List, Optional

from repro.service.spec import StudySpec
from repro.service.wal import DONE, LEASED, POISONED, QUEUED, JobRecord, ServiceWAL

DEFAULT_CAPACITY = 16
DEFAULT_MAX_ATTEMPTS = 3
DEFAULT_LEASE_TTL_S = 3600.0


class AdmissionError(Exception):
    """Backpressure: the bounded queue is full; resubmit later."""

    def __init__(self, capacity: int, backlog: int) -> None:
        super().__init__(
            f"queue full: {backlog} studies pending against capacity {capacity}"
        )
        self.capacity = capacity
        self.backlog = backlog


@dataclasses.dataclass
class Lease:
    """One live claim, tracked entirely on the monotonic clock."""

    fingerprint: str
    owner: str
    attempt: int
    granted_mono: float
    deadline_mono: float
    heartbeat_mono: float


@dataclasses.dataclass(frozen=True)
class SubmitResult:
    fingerprint: str
    state: str
    #: True when the study had already completed: serve the stored result.
    cached: bool


@dataclasses.dataclass(frozen=True)
class Claim:
    fingerprint: str
    spec: StudySpec
    attempt: int


def _locked(method):
    """Serialize a queue method under the instance lock.

    Submissions arrive on HTTP handler threads while the daemon's main
    loop claims and completes; every public transition and query holds
    the one reentrant lock, so the WAL append order always matches the
    in-memory transition order.
    """

    @functools.wraps(method)
    def wrapper(self, *args, **kwargs):
        with self._lock:
            return method(self, *args, **kwargs)

    return wrapper


class StudyQueue:
    """Bounded FIFO of studies with leased, liveness-checked claims."""

    def __init__(
        self,
        wal: ServiceWAL,
        capacity: int = DEFAULT_CAPACITY,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
        heartbeat_timeout_s: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        if lease_ttl_s <= 0:
            raise ValueError(f"lease_ttl_s must be > 0, got {lease_ttl_s}")
        if heartbeat_timeout_s is not None and heartbeat_timeout_s <= 0:
            raise ValueError(
                f"heartbeat_timeout_s must be > 0, got {heartbeat_timeout_s}"
            )
        self.wal = wal
        self.capacity = capacity
        self.max_attempts = max_attempts
        self.lease_ttl_s = lease_ttl_s
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self._clock = clock
        self._lock = threading.RLock()
        self._jobs, self._order = wal.replay()
        self._leases: Dict[str, Lease] = {}
        #: Lifetime counters for the telemetry plane.
        self.lease_expiries = 0
        self.rejections = 0

    # -- queries ------------------------------------------------------------------
    @_locked
    def job(self, fingerprint: str) -> Optional[JobRecord]:
        return self._jobs.get(fingerprint)

    @_locked
    def jobs(self) -> List[JobRecord]:
        return [self._jobs[fingerprint] for fingerprint in self._order]

    @_locked
    def counts(self) -> Dict[str, int]:
        counts = {QUEUED: 0, LEASED: 0, DONE: 0, POISONED: 0}
        for job in self._jobs.values():
            counts[job.state] += 1
        return counts

    def depth(self) -> int:
        """Studies still owed work (queued + leased): the backlog gauge."""
        counts = self.counts()
        return counts[QUEUED] + counts[LEASED]

    def idle(self) -> bool:
        return self.depth() == 0

    # -- admission ----------------------------------------------------------------
    @_locked
    def submit(self, spec: StudySpec) -> SubmitResult:
        """Admit *spec*, idempotently; raise :class:`AdmissionError` when full."""
        fingerprint = spec.fingerprint()
        job = self._jobs.get(fingerprint)
        if job is not None:
            return SubmitResult(fingerprint, job.state, cached=job.state == DONE)
        if self.depth() >= self.capacity:
            self.rejections += 1
            raise AdmissionError(self.capacity, self.depth())
        self.wal.submit(fingerprint, spec.to_wire())
        self._jobs[fingerprint] = JobRecord(
            fingerprint=fingerprint, spec_wire=spec.to_wire(), seq=len(self._order)
        )
        self._order.append(fingerprint)
        return SubmitResult(fingerprint, QUEUED, cached=False)

    # -- leases -------------------------------------------------------------------
    @_locked
    def claim(self, owner: str) -> Optional[Claim]:
        """Lease the oldest queued study to *owner* (None when drained dry)."""
        for fingerprint in self._order:
            job = self._jobs[fingerprint]
            if job.state != QUEUED:
                continue
            attempt = job.attempts + 1
            self.wal.lease(fingerprint, owner, attempt, self.lease_ttl_s)
            job.state = LEASED
            job.owner = owner
            job.attempts = attempt
            now = self._clock()
            self._leases[fingerprint] = Lease(
                fingerprint=fingerprint,
                owner=owner,
                attempt=attempt,
                granted_mono=now,
                deadline_mono=now + self.lease_ttl_s,
                heartbeat_mono=now,
            )
            return Claim(fingerprint, StudySpec.from_wire(job.spec_wire), attempt)
        return None

    @_locked
    def heartbeat(self, fingerprint: str) -> None:
        lease = self._leases.get(fingerprint)
        if lease is not None:
            lease.heartbeat_mono = self._clock()

    @_locked
    def expired(self) -> List[Lease]:
        """Live leases past their deadline or with a stale heartbeat."""
        now = self._clock()
        gone = []
        for lease in self._leases.values():
            if now > lease.deadline_mono:
                gone.append(lease)
            elif (
                self.heartbeat_timeout_s is not None
                and now - lease.heartbeat_mono > self.heartbeat_timeout_s
            ):
                gone.append(lease)
        return gone

    @_locked
    def expire(self) -> List[str]:
        """Requeue (or quarantine) every expired lease; the reclaimed fps."""
        reclaimed = []
        for lease in self.expired():
            self.lease_expiries += 1
            self._release(
                lease.fingerprint,
                f"lease expired after {self.lease_ttl_s:.0f}s "
                f"(attempt {lease.attempt})",
            )
            reclaimed.append(lease.fingerprint)
        return reclaimed

    # -- transitions --------------------------------------------------------------
    @_locked
    def complete(self, fingerprint: str, digest: str, report: str) -> None:
        job = self._require(fingerprint)
        self.wal.complete(fingerprint, digest, report)
        job.state = DONE
        job.owner = ""
        job.digest = digest
        job.report = report
        self._leases.pop(fingerprint, None)

    @_locked
    def fail(self, fingerprint: str, error: str) -> str:
        """Record a failed attempt; returns the resulting state."""
        job = self._require(fingerprint)
        self.wal.failed(fingerprint, job.attempts, error)
        job.error = error
        self._release(fingerprint, error)
        return job.state

    @_locked
    def release_drained(self, fingerprint: str, owner: str) -> None:
        """Give a leased study back, un-failed (SIGTERM drain checkpoint)."""
        job = self._require(fingerprint)
        self.wal.drained(fingerprint, owner)
        job.state = QUEUED
        job.owner = ""
        # A drained attempt is not a failure: the lease grant stays counted
        # (the WAL already did), but nothing else changes.
        self._leases.pop(fingerprint, None)

    @_locked
    def recover(self, owner: str) -> List[str]:
        """Reclaim every lease held by a dead incarnation.

        Called once at daemon start, before any claim: a replayed lease
        whose owner is not *owner* belongs to a process that no longer
        exists (one daemon per root), so the study is requeued -- or
        quarantined, if its granted-lease count already reached the
        retry bound.  No clock is consulted: incarnation identity, not
        time, decides death across restarts.
        """
        reclaimed = []
        for fingerprint in self._order:
            job = self._jobs[fingerprint]
            if job.state == LEASED and job.owner != owner:
                self._release(
                    fingerprint, f"lease owner {job.owner or '?'} died mid-study"
                )
                reclaimed.append(fingerprint)
        return reclaimed

    # -- internals ----------------------------------------------------------------
    def _require(self, fingerprint: str) -> JobRecord:
        job = self._jobs.get(fingerprint)
        if job is None:
            raise KeyError(f"unknown study {fingerprint}")
        return job

    def _release(self, fingerprint: str, reason: str) -> None:
        """Requeue a lease-holding study, or quarantine it at the bound."""
        job = self._require(fingerprint)
        if job.attempts >= self.max_attempts:
            self.wal.poison(fingerprint, reason)
            job.state = POISONED
            job.error = reason
        else:
            self.wal.requeue(fingerprint, reason)
            job.state = QUEUED
        job.owner = ""
        self._leases.pop(fingerprint, None)
