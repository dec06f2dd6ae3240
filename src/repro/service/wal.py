"""The durable study queue: a write-ahead log of queue transitions.

Every queue transition -- submit, lease, complete, fail, requeue, poison,
drain -- is one appended JSONL record, flushed and fsynced before the
transition takes effect anywhere else (write-ahead: the log IS the queue;
memory is just its cache).  The file rides
:class:`~repro.faults.journal.CheckpointJournal`, so a ``kill -9``
mid-append leaves at worst a torn final line that the *writer's* replay
truncates away -- the transition simply never happened, which is exactly
the state the rest of the system observed.  Reader handles (offline
``status``/``report`` clients) replay the same log but never modify it:
what looks like a torn tail to a reader may be a live daemon's append in
flight, and the single-writer role itself is enforced by the root's
:class:`~repro.service.lock.WriterLock` (a kernel ``flock``, so a dead
writer's lock dies with it).

Replay folds the log into per-study :class:`JobRecord` states.  Records
are keyed by the spec fingerprint; a duplicate ``submit`` for a known
fingerprint replays as a no-op, which is what makes resubmission
idempotent across daemon restarts.

Liveness deliberately does NOT live here.  Lease records carry the owning
daemon's incarnation id and an informational TTL, but no wall-clock
deadline: wall time can step (NTP) and monotonic time does not survive a
reboot, so expiry-by-timestamp in a durable log would either spuriously
expire healthy work or deadlock after a clock step.  Instead, in-process
liveness uses ``time.monotonic()`` (see :mod:`repro.service.queue`), and
across restarts a lease is dead exactly when its owner incarnation is --
which the recovering daemon can decide without trusting any clock.
"""

from __future__ import annotations

import dataclasses
import os
import threading
from typing import Dict, List, Tuple

from repro.faults.journal import CheckpointJournal

WAL_VERSION = 1

# -- job states (as replay reports them) ----------------------------------------
QUEUED = "queued"
LEASED = "leased"
DONE = "done"
POISONED = "poisoned"


@dataclasses.dataclass
class JobRecord:
    """One study's replayed state."""

    fingerprint: str
    spec_wire: Dict[str, object]
    state: str = QUEUED
    #: Lease attempts granted so far (the retry bound counts these).
    attempts: int = 0
    #: Incarnation id of the daemon holding the live lease ("" when none).
    owner: str = ""
    error: str = ""
    digest: str = ""
    report: str = ""
    #: Admission order (position of the submit record in the log).
    seq: int = 0

    def to_wire(self) -> Dict[str, object]:
        return {
            "fingerprint": self.fingerprint,
            "state": self.state,
            "attempts": self.attempts,
            "owner": self.owner,
            "error": self.error,
            "digest": self.digest,
            "report": self.report,
            "seq": self.seq,
            "spec": dict(self.spec_wire),
        }


class ServiceWAL:
    """Append-side and replay-side of the study queue's log.

    A handle is either the *writer* -- the one process holding the root's
    :class:`~repro.service.lock.WriterLock`, allowed to append and to
    truncate a torn tail during replay -- or a *reader*, which may only
    replay and must leave the file byte-for-byte alone (a reader's "torn
    tail" may be a live writer's append in flight, and truncating it
    would destroy a committed record after the writer's fsync lands).
    """

    def __init__(self, path: str, writer: bool = False) -> None:
        self.path = str(path)
        self.writer = writer
        self._journal = CheckpointJournal(self.path)
        self._lock = threading.Lock()
        #: Bytes of torn tail dropped by the last :meth:`replay` (0 when
        #: the log was clean) -- surfaced on the daemon's recovery line.
        #: Only a writer handle also truncates them off the file.
        self.recovered_bytes = 0

    def ensure(self) -> None:
        """Create the log with its header if it does not exist yet."""
        if not os.path.exists(self.path):
            self._journal.start({"kind": "service-wal", "wal_version": WAL_VERSION})

    # -- appends (each durable before it returns) ---------------------------------
    def _append(self, record: Dict[str, object]) -> None:
        if not self.writer:
            raise RuntimeError(
                f"{self.path}: read-only WAL handle cannot append "
                "(take the root's WriterLock and open with writer=True)"
            )
        with self._lock:
            self._journal.append(record)

    def submit(self, fingerprint: str, spec_wire: Dict[str, object]) -> None:
        self._append({"type": "submit", "fingerprint": fingerprint, "spec": spec_wire})

    def lease(self, fingerprint: str, owner: str, attempt: int, ttl_s: float) -> None:
        self._append(
            {
                "type": "lease",
                "fingerprint": fingerprint,
                "owner": owner,
                "attempt": attempt,
                "ttl_s": ttl_s,
            }
        )

    def complete(self, fingerprint: str, digest: str, report: str) -> None:
        self._append(
            {
                "type": "complete",
                "fingerprint": fingerprint,
                "digest": digest,
                "report": report,
            }
        )

    def failed(self, fingerprint: str, attempt: int, error: str) -> None:
        self._append(
            {
                "type": "failed",
                "fingerprint": fingerprint,
                "attempt": attempt,
                "error": error,
            }
        )

    def requeue(self, fingerprint: str, reason: str) -> None:
        self._append({"type": "requeue", "fingerprint": fingerprint, "reason": reason})

    def poison(self, fingerprint: str, error: str) -> None:
        self._append({"type": "poison", "fingerprint": fingerprint, "error": error})

    def drained(self, fingerprint: str, owner: str) -> None:
        self._append({"type": "drained", "fingerprint": fingerprint, "owner": owner})

    # -- replay -------------------------------------------------------------------
    def replay(self) -> Tuple[Dict[str, JobRecord], List[str]]:
        """Fold the log into job states.

        Returns ``(jobs, order)`` where *order* is the fingerprints in
        admission order.  Tolerates a torn final record -- and, on a
        writer handle only, truncates it off the file before the next
        append; anything else malformed raises, because a WAL that lies
        is worse than one that is missing.  A reader handle over a root
        with no WAL yet replays as empty without creating the file.
        """
        if self.writer:
            self.ensure()
        elif not os.path.exists(self.path):
            self.recovered_bytes = 0
            return {}, []
        with self._lock:
            records = CheckpointJournal.load(self.path, truncate=self.writer)
        header = records[0]
        if header.get("kind") != "service-wal":
            raise ValueError(f"{self.path}: not a service WAL")
        if header.get("wal_version") != WAL_VERSION:
            raise ValueError(
                f"{self.path}: WAL version {header.get('wal_version')}, "
                f"expected {WAL_VERSION}"
            )
        self.recovered_bytes = int(header.get("recovered_bytes", 0))
        jobs: Dict[str, JobRecord] = {}
        order: List[str] = []
        for record in records[1:]:
            kind = record.get("type")
            fingerprint = record.get("fingerprint")
            if not isinstance(fingerprint, str) or not fingerprint:
                raise ValueError(f"{self.path}: record without fingerprint: {record}")
            job = jobs.get(fingerprint)
            if kind == "submit":
                if job is None:
                    jobs[fingerprint] = JobRecord(
                        fingerprint=fingerprint,
                        spec_wire=dict(record.get("spec", {})),
                        seq=len(order),
                    )
                    order.append(fingerprint)
                continue
            if job is None:
                raise ValueError(
                    f"{self.path}: {kind} for never-submitted study {fingerprint}"
                )
            if kind == "lease":
                job.state = LEASED
                job.owner = str(record.get("owner", ""))
                job.attempts = int(record.get("attempt", job.attempts + 1))
            elif kind == "complete":
                job.state = DONE
                job.owner = ""
                job.digest = str(record.get("digest", ""))
                job.report = str(record.get("report", ""))
            elif kind == "failed":
                job.error = str(record.get("error", ""))
            elif kind == "requeue":
                job.state = QUEUED
                job.owner = ""
            elif kind == "poison":
                job.state = POISONED
                job.owner = ""
                job.error = str(record.get("error", "")) or job.error
            elif kind == "drained":
                job.state = QUEUED
                job.owner = ""
            else:
                raise ValueError(f"{self.path}: unknown WAL record type {kind!r}")
        return jobs, order
