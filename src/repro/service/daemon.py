"""The fuzzing-as-a-service daemon: claim, execute, recover, drain.

One daemon owns one service root::

    <root>/wal.jsonl         the durable study queue (write-ahead log)
    <root>/wal.lock          the WAL writer flock (kernel-released on death)
    <root>/store/            reports, (app, campaign, seed) index, corpus
    <root>/jobs/<fp>/        per-study checkpoint journals while running
    <root>/daemon.json       discovery: pid, HTTP port, incarnation id
    <root>/service.json      configured admission bounds (left behind on
                             exit so offline clients admit consistently)

Ownership is a kernel lock, not a convention: the daemon takes an
exclusive flock on ``wal.lock`` before replaying the WAL and holds it for
its lifetime, so offline clients can never append to a log this daemon
has already cached in memory (see :mod:`repro.service.lock`), and a
second daemon on the same root fails fast instead of double-claiming.

The daemon is designed backwards from its own death.  Every transition is
WAL-first; study execution checkpoints through the existing farm
journal/manifest machinery; and startup is a *recovery scan*: replay the
WAL (truncating any torn tail), reclaim leases held by dead incarnations,
and let the normal claim loop resume each reclaimed study from its shard
checkpoints.  ``kill -9`` at any point is therefore just an unusually
blunt restart -- the recovered run completes to a report byte-identical
to an uninterrupted one, because studies are deterministic and resume is
bit-identical (the PR-2/PR-4 contract this service inherits).

Liveness is monotonic-clock-only in process and incarnation-based across
restarts; no wall-clock timestamp ever decides whether work is alive.

Signals: the first SIGTERM/SIGINT requests a graceful drain -- finish the
leased study, checkpoint, release cleanly, exit 130 with every remaining
submission still queued in the WAL.  A second signal aborts the in-flight
farm run the hard way (still resumable: that is what the journals are
for), releases the lease as drained, and exits 130.
"""

from __future__ import annotations

import errno
import json
import os
import shutil
import signal
import socket
import threading
import time
import traceback
import uuid
from typing import List, Optional

from repro import faults, telemetry
from repro.experiments.config import by_name
from repro.farm import StudyManifest
from repro.farm.health import ShardPoisonedError, StudyInterrupted
from repro.service.lock import WriterLock
from repro.service.queue import Claim, StudyQueue, SubmitResult
from repro.service.spec import StudySpec
from repro.service.store import ResultStore, SegmentRecord
from repro.service.wal import DONE, ServiceWAL
from repro.telemetry.metrics import (
    SERVICE_JOBS_RECOVERED,
    SERVICE_LEASE_EXPIRIES,
    SERVICE_QUEUE_DEPTH,
    SERVICE_REJECTED,
    SERVICE_STUDIES_COMPLETED,
)

#: Exit codes (the CLI exposes these; see the runner's exit-code table).
EXIT_IDLE = 0
EXIT_DRAINED = 130


class RootLockedError(RuntimeError):
    """Another live process holds the root's WAL writer lock."""


class SimulatedCrash(BaseException):
    """Test-only stand-in for ``kill -9``: unwinds with no cleanup.

    Derives from ``BaseException`` so no recovery path in the daemon can
    accidentally swallow it -- the crash tests rely on the process state
    being exactly what a real SIGKILL would leave behind (modulo the
    interpreter exiting).
    """


class CrashPoint:
    """Counts durability boundaries; optionally crashes at the Nth.

    The crash/recovery property tests run the daemon once with no limit to
    count the boundaries, then once per boundary index with ``limit=i`` to
    simulate ``kill -9`` exactly there.
    """

    def __init__(self, limit: Optional[int] = None) -> None:
        self.limit = limit
        self.count = 0
        self.labels: List[str] = []

    def tick(self, label: str) -> None:
        self.count += 1
        self.labels.append(label)
        if self.limit is not None and self.count >= self.limit:
            raise SimulatedCrash(f"simulated kill -9 at boundary {label}")


class _NoCrash:
    """The free default: no counting, no crashing."""

    def tick(self, label: str) -> None:
        pass


_NO_CRASH = _NoCrash()


class ServiceDaemon:
    """One incarnation of the service over a root directory."""

    def __init__(
        self,
        root: str,
        capacity: int = 16,
        max_attempts: int = 3,
        lease_ttl_s: float = 3600.0,
        poll_interval_s: float = 0.2,
        http_port: Optional[int] = None,
        enable_telemetry: bool = True,
        crash_point: Optional[CrashPoint] = None,
    ) -> None:
        self.root = str(root)
        os.makedirs(self.root, exist_ok=True)
        self.jobs_dir = os.path.join(self.root, "jobs")
        self.discovery_path = os.path.join(self.root, "daemon.json")
        self.config_path = os.path.join(self.root, "service.json")
        #: Incarnation id: lease ownership and cross-restart death detection.
        self.owner = f"{socket.gethostname()}:{os.getpid()}:{uuid.uuid4().hex[:8]}"
        self.poll_interval_s = poll_interval_s
        self.http_port = http_port
        self.crash = crash_point if crash_point is not None else _NO_CRASH
        # The writer lock must be ours before the queue below replays the
        # WAL: replay truncates a torn tail, which is only safe when no
        # other process can be mid-append on the same file.
        self._wal_lock = WriterLock(self.root)
        if not self._wal_lock.acquire():
            raise RootLockedError(
                f"{self.root}: another process holds the WAL writer lock "
                "(a daemon is already serving this root)"
            )
        try:
            self.wal = ServiceWAL(os.path.join(self.root, "wal.jsonl"), writer=True)
            self.store = ResultStore(os.path.join(self.root, "store"))
            self.queue = StudyQueue(
                self.wal,
                capacity=capacity,
                max_attempts=max_attempts,
                lease_ttl_s=lease_ttl_s,
            )
        except BaseException:  # corrupt WAL/store: don't leak the writer role
            self._wal_lock.release()
            raise
        self.started_mono = time.monotonic()
        self.jobs_recovered = 0
        self.studies_completed = 0
        self._drain_requested = False
        self._hard_drain = False
        self._stop_requested = False
        self._executing: Optional[str] = None
        self._old_handlers = {}
        self._server = None
        self._telemetry = None
        if enable_telemetry:
            self._telemetry = telemetry.enable()

    # -- startup / recovery -------------------------------------------------------
    def recover(self) -> List[str]:
        """Reclaim every lease a dead incarnation still holds.

        Returns the reclaimed fingerprints.  Requeued studies resume from
        their checkpoint journals when the claim loop reaches them; the
        torn-tail bytes the WAL replay truncated (if any) are surfaced in
        ``wal.recovered_bytes``.
        """
        reclaimed = self.queue.recover(self.owner)
        self.jobs_recovered += len(reclaimed)
        self._publish_metrics()
        self.crash.tick("recover")
        return reclaimed

    def start(self) -> None:
        """Recover, publish discovery, and (optionally) start the HTTP API."""
        try:
            self.recover()
            self._write_config()
            if self.http_port is not None:
                from repro.service.http_api import StatusServer

                self._server = StatusServer(self, port=self.http_port)
                self._server.start()
            self._write_discovery()
        except SimulatedCrash:
            # A real SIGKILL drops the flock with the process; emulate the
            # kernel's fd cleanup so in-process crash tests can restart.
            self._wal_lock.release()
            raise

    def _atomic_json(self, path: str, payload: dict) -> None:
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)

    def _write_discovery(self) -> None:
        self._atomic_json(
            self.discovery_path,
            {
                "pid": os.getpid(),
                "owner": self.owner,
                "root": os.path.abspath(self.root),
                "port": self._server.port if self._server is not None else None,
            },
        )

    def _write_config(self) -> None:
        """Leave the admission bounds behind for offline clients.

        Unlike discovery this file survives shutdown on purpose: an
        offline submission admits against the capacity the root's daemon
        was actually configured with, not a hardcoded default.
        """
        self._atomic_json(
            self.config_path,
            {
                "capacity": self.queue.capacity,
                "max_attempts": self.queue.max_attempts,
                "lease_ttl_s": self.queue.lease_ttl_s,
            },
        )

    # -- submissions (HTTP handlers and in-process clients land here) -------------
    def submit(self, spec: StudySpec) -> SubmitResult:
        try:
            result = self.queue.submit(spec)
            self._publish_metrics()
            self.crash.tick("wal:submit")
        except SimulatedCrash:
            self._wal_lock.release()  # see start(): simulated kernel cleanup
            raise
        return result

    # -- the serving loop ---------------------------------------------------------
    def serve_forever(self, until_idle: bool = False) -> int:
        """Process the queue; returns the process exit code.

        *until_idle* turns the daemon into a batch drainer: it exits 0
        once nothing is queued or leased (CI and the tests use this; a
        production daemon runs without it until signalled).
        """
        self._install_handlers()
        try:
            while not self._drain_requested and not self._stop_requested:
                try:
                    # Between executions every live lease is foreign (ours
                    # are released synchronously), so expiry cannot
                    # double-run.
                    expired = self.queue.expire()
                    if expired:
                        self._publish_metrics()
                    claim = self.queue.claim(self.owner)
                    if claim is None:
                        if until_idle:
                            return EXIT_IDLE
                        time.sleep(self.poll_interval_s)
                        continue
                    self._publish_metrics()
                    self.crash.tick("wal:lease")
                    self._run_claim(claim)
                except KeyboardInterrupt:
                    # A second signal landed between claims (the poll
                    # sleep, expire, claim): same contract as mid-study --
                    # take the drain exit, not a traceback.
                    self._drain_requested = True
        finally:
            self._restore_handlers()
            self._executing = None
            if self._server is not None:
                self._server.stop()
            if self._telemetry is not None:
                telemetry.disable()
            self._remove_discovery()
            self._wal_lock.release()
        return EXIT_DRAINED if self._drain_requested else EXIT_IDLE

    def request_drain(self) -> None:
        """Programmatic SIGTERM: finish leased work, then exit 130."""
        self._drain_requested = True

    def request_stop(self) -> None:
        """Stop the loop without the drain exit code (tests, embedding)."""
        self._stop_requested = True

    # -- executing one claim ------------------------------------------------------
    def _run_claim(self, claim: Claim) -> None:
        self._executing = claim.fingerprint
        ticker = _HeartbeatTicker(self.queue, claim.fingerprint)
        ticker.start()
        try:
            self._execute(claim)
        except StudyInterrupted:
            # The farm drained mid-study on our signal: the shard journals
            # hold every finished shard's result; give the lease back un-failed.
            self.queue.release_drained(claim.fingerprint, self.owner)
            self._drain_requested = True
        except ShardPoisonedError as exc:
            self._fail(claim, f"shards poisoned: {exc}")
        except SimulatedCrash:
            raise
        except KeyboardInterrupt:
            # Hard drain mid-study at workers=1: the wear journal has the
            # finished shards' results; release and leave.
            self.queue.release_drained(claim.fingerprint, self.owner)
            self._drain_requested = True
        except Exception:
            self._fail(claim, traceback.format_exc(limit=20))
        finally:
            ticker.stop()
            self._executing = None
            self._publish_metrics()

    def _fail(self, claim: Claim, error: str) -> None:
        state = self.queue.fail(claim.fingerprint, error)
        self.crash.tick("wal:release")
        if state == DONE:  # pragma: no cover - fail cannot complete a study
            raise AssertionError("fail() completed a study")

    def _execute(self, claim: Claim) -> None:
        """Run (or serve from the store) one leased study."""
        stored = self.store.get(claim.fingerprint)
        if stored is None:
            spec = claim.spec
            plan = spec.build_plan()
            with faults.session(plan):
                if spec.kind == "wear":
                    report, segments = self._run_wear(claim, spec)
                else:
                    report, segments = self._run_guided(claim, spec)
            stored = self.store.put_study(
                claim.fingerprint, spec.to_wire(), report, segments
            )
            self.crash.tick("store:report")
        self.queue.complete(claim.fingerprint, stored.digest, stored.report_path)
        self.studies_completed += 1
        self.crash.tick("wal:complete")
        shutil.rmtree(self._job_dir(claim.fingerprint), ignore_errors=True)

    def _job_dir(self, fingerprint: str) -> str:
        return os.path.join(self.jobs_dir, fingerprint)

    def _run_wear(self, claim: Claim, spec: StudySpec):
        """The journalled paper study: resumable at any checkpoint."""
        from repro.experiments.wear_experiment import run_wear_study

        job_dir = self._job_dir(claim.fingerprint)
        os.makedirs(job_dir, exist_ok=True)
        journal_path = os.path.join(job_dir, "journal")
        resume = False
        if os.path.exists(journal_path):
            try:
                StudyManifest(journal_path).header()
                resume = True
            except (OSError, ValueError):
                # A crash before the manifest header landed: start fresh.
                resume = False
        result = run_wear_study(
            by_name(spec.config),
            packages=list(spec.packages) if spec.packages is not None else None,
            campaigns=spec.campaign_values(),
            journal_path=journal_path,
            resume=resume,
            workers=spec.workers,
        )
        report = result.render() + "\n"
        seed = by_name(spec.config).corpus_seed
        segments = [
            SegmentRecord(
                app=app.package,
                campaign=app.campaign.value,
                seed=seed,
                fingerprint=claim.fingerprint,
                counts={
                    "sent": app.sent,
                    "crashes": app.crashes_seen,
                    "rebooted": int(app.rebooted),
                },
            )
            for app in result.summary.apps
        ]
        return report, segments

    def _run_guided(self, claim: Claim, spec: StudySpec):
        """The guided study: deterministic end to end, so recovery re-runs.

        No mid-study checkpoint exists (guided rounds re-shard dynamically),
        but the whole run is a pure function of its spec -- a crashed
        attempt re-executes to the identical report and corpus, and the
        corpus merge into the store is idempotent.
        """
        from repro.guided import GuidedConfig, run_guided_study

        result = run_guided_study(
            by_name(spec.config),
            GuidedConfig(scheduler=spec.scheduler, budget=spec.guided_budget),
            packages=list(spec.packages) if spec.packages is not None else None,
            workers=spec.workers,
            campaigns=spec.campaign_values(),
        )
        self.store.merge_corpus(result.corpus)
        self.crash.tick("store:corpus")
        segments = [
            SegmentRecord(
                app=arm["package"],
                campaign=arm["campaign"],
                seed=result.guided.seed,
                fingerprint=claim.fingerprint,
                counts={
                    "plays": arm["plays"],
                    "intents": arm["intents"],
                    "novel": arm["novel"],
                },
            )
            for arm in result.scheduler_snapshot["arms"]
        ]
        return result.render(), segments

    # -- signals ------------------------------------------------------------------
    def _on_signal(self, signum, frame):
        if self._drain_requested:
            self._hard_drain = True
            raise KeyboardInterrupt
        self._drain_requested = True

    def _install_handlers(self) -> None:
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                self._old_handlers[sig] = signal.signal(sig, self._on_signal)
            except ValueError:  # not the main thread (tests embed the loop)
                pass

    def _restore_handlers(self) -> None:
        for sig, handler in self._old_handlers.items():
            signal.signal(sig, handler)
        self._old_handlers = {}

    # -- status / telemetry -------------------------------------------------------
    def status(self) -> dict:
        counts = self.queue.counts()
        return {
            "owner": self.owner,
            "pid": os.getpid(),
            "root": os.path.abspath(self.root),
            "uptime_s": round(time.monotonic() - self.started_mono, 3),
            "executing": self._executing,
            "draining": self._drain_requested,
            "queue": counts,
            "depth": self.queue.depth(),
            "capacity": self.queue.capacity,
            "lease_expiries": self.queue.lease_expiries,
            "rejections": self.queue.rejections,
            "jobs_recovered": self.jobs_recovered,
            "studies_completed": self.studies_completed,
            "wal_recovered_bytes": self.wal.recovered_bytes,
        }

    def _publish_metrics(self) -> None:
        handle = telemetry.get()
        if not handle.enabled:
            return
        counts = self.queue.counts()
        handle.metrics.gauge(
            SERVICE_QUEUE_DEPTH,
            "Studies queued or leased, by state.",
            ("state",),
        ).labels(state="queued").set(counts["queued"])
        handle.metrics.gauge(
            SERVICE_QUEUE_DEPTH,
            "Studies queued or leased, by state.",
            ("state",),
        ).labels(state="leased").set(counts["leased"])
        for name, help_text, level in (
            (
                SERVICE_LEASE_EXPIRIES,
                "Leases past deadline or heartbeat, reclaimed.",
                self.queue.lease_expiries,
            ),
            (
                SERVICE_JOBS_RECOVERED,
                "Leased studies reclaimed from dead incarnations at startup.",
                self.jobs_recovered,
            ),
            (
                SERVICE_REJECTED,
                "Submissions rejected by admission control.",
                self.queue.rejections,
            ),
            (
                SERVICE_STUDIES_COMPLETED,
                "Studies completed by this incarnation.",
                self.studies_completed,
            ),
        ):
            counter = handle.metrics.counter(name, help_text)
            delta = level - counter.total()
            if delta > 0:
                counter.inc(delta)

    def _remove_discovery(self) -> None:
        try:
            os.remove(self.discovery_path)
        except OSError as exc:  # pragma: no cover - already gone
            if exc.errno != errno.ENOENT:
                raise


class _HeartbeatTicker(threading.Thread):
    """Beats the executing study's lease so observers see it alive."""

    def __init__(self, queue: StudyQueue, fingerprint: str, every_s: float = 1.0):
        super().__init__(daemon=True, name=f"lease-heartbeat-{fingerprint[:8]}")
        self._queue = queue
        self._fingerprint = fingerprint
        self._every_s = every_s
        self._stop_event = threading.Event()

    def run(self) -> None:
        while not self._stop_event.wait(self._every_s):
            self._queue.heartbeat(self._fingerprint)

    def stop(self) -> None:
        self._stop_event.set()
        self.join(timeout=2.0)
