"""The service client: talk to a live daemon, or the files it left behind.

Discovery is the ``daemon.json`` file the daemon writes (atomically) into
its root: pid, incarnation id, and the status API's port.  The client
prefers the HTTP surface -- that is the live, locked view -- and falls
back to reading the WAL and store directly when no daemon answers, so
``status`` and ``report`` keep working against a stopped service (the
whole point of making the queue durable).  Offline reads are strictly
read-only: they never create, truncate, or repair the daemon's files,
because "no daemon answers" can also mean "a daemon is running without
its HTTP surface" or "mid-append" -- a reader that truncated what it
mistook for a torn tail could destroy a committed record.

Offline *submission* also works: the WAL is the queue, so appending a
submit record while no daemon runs simply queues work for the next
incarnation to recover and execute.  Single-writer safety is the root's
:class:`~repro.service.lock.WriterLock` (the same kernel flock the daemon
holds for its lifetime, taken *before* it replays the WAL): the client
appends only while holding that lock, so it can never race a daemon that
is starting up, appending, or repairing -- discovery alone cannot close
that window, because ``daemon.json`` appears only after recovery.
Offline admission uses the capacity the root's daemon was configured
with (``service.json``, left behind across restarts), falling back to
the defaults for a root no daemon has served yet.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, Optional, Tuple

from repro.service.lock import WriterLock
from repro.service.queue import (
    DEFAULT_CAPACITY,
    DEFAULT_MAX_ATTEMPTS,
    AdmissionError,
    StudyQueue,
)
from repro.service.spec import StudySpec
from repro.service.store import ResultStore
from repro.service.wal import ServiceWAL

HTTP_TIMEOUT_S = 5.0

#: Backoff while waiting for a starting daemon to either publish
#: discovery or release the writer lock.
LOCK_POLL_S = 0.05


class ServiceClient:
    """Submit to / inspect one service root, live or offline."""

    def __init__(self, root: str, timeout_s: float = HTTP_TIMEOUT_S) -> None:
        self.root = str(root)
        self.discovery_path = os.path.join(self.root, "daemon.json")
        self.config_path = os.path.join(self.root, "service.json")
        self.timeout_s = timeout_s

    # -- discovery ----------------------------------------------------------------
    def discovery(self) -> Optional[Dict[str, object]]:
        """The daemon's discovery record, or None when none is published."""
        try:
            with open(self.discovery_path, "r", encoding="utf-8") as fh:
                return json.load(fh)
        except (OSError, ValueError):
            return None

    def base_url(self) -> Optional[str]:
        info = self.discovery()
        if info is None or not info.get("port"):
            return None
        return f"http://127.0.0.1:{info['port']}"

    def daemon_alive(self) -> bool:
        """A daemon is alive iff its published pid still exists.

        The discovery file is removed on clean shutdown, so its presence
        plus a live pid is the signal; the HTTP probe would miss daemons
        running without the status API.  Note the converse does not hold:
        a daemon mid-startup has no discovery yet -- which is why writes
        are gated on the WriterLock, never on this probe.
        """
        info = self.discovery()
        if info is None:
            return False
        try:
            os.kill(int(info.get("pid", -1)), 0)
        except (OSError, ValueError, TypeError):
            return False
        return True

    # -- HTTP plumbing ------------------------------------------------------------
    def _request(self, path: str, body: Optional[bytes] = None):
        # urllib.request also loads http.client, email and ssl: only a
        # process that speaks HTTP to a daemon pays for them.
        import urllib.error
        import urllib.request

        base = self.base_url()
        if base is None:
            raise ConnectionError("no daemon HTTP endpoint published")
        request = urllib.request.Request(
            base + path,
            data=body,
            headers={"Content-Type": "application/json"} if body else {},
            method="POST" if body is not None else "GET",
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout_s) as response:
                return response.status, response.read()
        except urllib.error.HTTPError as exc:
            return exc.code, exc.read()
        except (urllib.error.URLError, OSError) as exc:
            raise ConnectionError(f"daemon unreachable: {exc}") from exc

    # -- operations ---------------------------------------------------------------
    def submit(self, spec: StudySpec) -> Dict[str, object]:
        """Submit *spec*; returns ``{fingerprint, state, cached}``.

        Raises :class:`AdmissionError` on backpressure (HTTP 429 from a
        live daemon, or the bounded queue directly when offline),
        ``ValueError`` when the daemon rejects the spec, and
        ``ConnectionError`` when a live daemon cannot be reached over
        HTTP and the offline path is unavailable (writer lock held --
        e.g. a daemon running with ``--no-http``).
        """
        deadline = time.monotonic() + self.timeout_s
        while True:
            if self.daemon_alive():
                return self._submit_http(spec)
            # Offline: the WAL is the queue -- but only the writer-lock
            # holder may append.  Holding the lock proves no daemon is
            # mid-startup (it takes this lock before replaying the WAL),
            # which closes the discovery TOCTOU window.
            lock = WriterLock(self.root)
            if lock.acquire():
                try:
                    result = self._offline_queue(writer=True).submit(spec)
                finally:
                    lock.release()
                return {
                    "fingerprint": result.fingerprint,
                    "state": result.state,
                    "cached": result.cached,
                }
            # Lock held but no discovery yet: a daemon is starting (or
            # another client is submitting).  Wait for one of the two
            # signals rather than guessing.
            if time.monotonic() >= deadline:
                raise ConnectionError(
                    f"{self.root}: the WAL writer lock is held but no daemon "
                    f"published discovery within {self.timeout_s:.0f}s "
                    "(a daemon running --no-http cannot accept submissions)"
                )
            time.sleep(LOCK_POLL_S)

    def _submit_http(self, spec: StudySpec) -> Dict[str, object]:
        body = json.dumps(spec.to_wire()).encode("utf-8")
        status, payload = self._request("/submit", body=body)
        answer = json.loads(payload.decode("utf-8"))
        if status == 429:
            raise AdmissionError(
                int(answer.get("capacity", 0)), int(answer.get("backlog", 0))
            )
        if status != 200:
            raise ValueError(answer.get("error", f"submit failed: HTTP {status}"))
        return answer

    def status(self) -> Dict[str, object]:
        """The daemon's status dict, or an offline summary of the files."""
        if self.daemon_alive():
            try:
                status, payload = self._request("/status")
                if status == 200:
                    return json.loads(payload.decode("utf-8"))
            except ConnectionError:
                pass  # alive but no HTTP endpoint: fall through to files
        queue = self._offline_queue()
        return {
            "owner": None,
            "pid": None,
            "root": os.path.abspath(self.root),
            "executing": None,
            "draining": False,
            "queue": queue.counts(),
            "depth": queue.depth(),
            "capacity": queue.capacity,
            "offline": True,
            "wal_recovered_bytes": queue.wal.recovered_bytes,
        }

    def study(self, fingerprint: str) -> Optional[Dict[str, object]]:
        """One job's wire state (live or replayed); None when unknown."""
        if self.daemon_alive():
            try:
                status, payload = self._request(f"/studies/{fingerprint}")
                if status == 200:
                    return json.loads(payload.decode("utf-8"))
                return None
            except ConnectionError:
                pass
        record = self._offline_queue().job(fingerprint)
        return record.to_wire() if record is not None else None

    def report(self, fingerprint: str) -> Optional[str]:
        """The stored report text, live or from the store; None when absent."""
        if self.daemon_alive():
            try:
                status, payload = self._request(f"/studies/{fingerprint}/report")
                if status == 200:
                    return payload.decode("utf-8")
                return None
            except ConnectionError:
                pass
        store = ResultStore(os.path.join(self.root, "store"), writer=False)
        stored = store.get(fingerprint)
        return stored.report_text() if stored is not None else None

    # -- offline plumbing ---------------------------------------------------------
    def service_config(self) -> Tuple[int, int]:
        """``(capacity, max_attempts)`` the root's daemon was configured
        with (``service.json`` leftovers), or the defaults for a root no
        daemon has served yet."""
        try:
            with open(self.config_path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
            capacity = int(data.get("capacity", DEFAULT_CAPACITY))
            max_attempts = int(data.get("max_attempts", DEFAULT_MAX_ATTEMPTS))
            if capacity < 1 or max_attempts < 1:
                raise ValueError("non-positive bounds")
        except (OSError, ValueError, TypeError):
            return DEFAULT_CAPACITY, DEFAULT_MAX_ATTEMPTS
        return capacity, max_attempts

    def _offline_queue(self, writer: bool = False) -> StudyQueue:
        """A queue over the root's files.

        Read-only by default: replays without creating or truncating
        anything.  ``writer=True`` is valid only while holding the root's
        :class:`WriterLock` (the WAL handle truncates a torn tail on
        replay and appends on submit).
        """
        wal = ServiceWAL(os.path.join(self.root, "wal.jsonl"), writer=writer)
        capacity, max_attempts = self.service_config()
        return StudyQueue(wal, capacity=capacity, max_attempts=max_attempts)
