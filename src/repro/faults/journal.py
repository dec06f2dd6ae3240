"""Crash-safe checkpoint journal: append-only JSONL plus a result record.

HypoFuzz-style harnesses treat a long campaign as a resumable,
database-backed process rather than a one-shot run; this module is that
database, scaled to the simulator.  Two files:

* ``<journal>`` -- append-only JSONL.  The first record is a header binding
  the run to its configuration and fault-plan fingerprint.  Whatever
  follows is the owner's business: a fleet lane appends one record per
  finished pair, the service WAL one per study transition.  Every append
  is flushed and fsynced, so after a kill the file holds exactly the
  durable records.  A torn final line (the crash landed mid-write) is
  dropped from the parse, with the recovered byte count noted on the
  returned header record; the owning writer's resume path additionally
  truncates it away (``load(..., truncate=True)``) before appending again,
  while readers leave the file untouched.
* ``<journal>.state`` -- one pickled record, written atomically (temp file,
  fsync, ``os.replace``).  A farm shard writes its result here once its
  last segment folds, never a device tree.

The rule for a study shard: its journal holds a header and, once the shard
finishes, its result.  Resume loads the finished shards and re-runs the
rest from scratch; each shard is deterministic on its own seed and virtual
clock, so the resumed study's summary is identical to an uninterrupted
run's.  A kill mid-write leaves at most a stray ``.state.tmp``, which is
never read.
"""

from __future__ import annotations

import json
import os
import pickle
from typing import Any, Dict, List, Optional

from repro.faults.errors import CampaignKilled

JOURNAL_VERSION = 1


class KillSwitch:
    """Simulated host crash: raises after a fixed number of injections.

    The CI chaos smoke and the resume tests use this to kill a campaign at
    an arbitrary injection index without involving process management.
    """

    def __init__(self, limit: int) -> None:
        if limit < 1:
            raise ValueError(f"kill limit must be >= 1, got {limit}")
        self.limit = limit
        self.count = 0

    def tick(self) -> None:
        self.count += 1
        if self.count >= self.limit:
            raise CampaignKilled(self.count)


class SharedKillSwitch:
    """A :class:`KillSwitch` whose counter is shared across worker processes.

    ``--kill-after N`` means "the host dies after N injections *study-wide*",
    not per worker -- so the supervised farm backs the counter with a
    ``multiprocessing.Value`` and every worker ticks the same cell.  The
    first tick to reach the limit raises :class:`CampaignKilled` at exactly
    ``limit``; workers racing past it raise with whatever count their tick
    observed (always ``>= limit``), so the supervisor reports the minimum.

    Construct it in the supervising process with
    :meth:`SharedKillSwitch.create`, then rebuild per worker from the raw
    shared counter (``multiprocessing`` can ship a ``Value`` only as a
    direct ``Process`` argument, not inside an arbitrary pickle).
    """

    def __init__(self, limit: int, counter) -> None:
        if limit < 1:
            raise ValueError(f"kill limit must be >= 1, got {limit}")
        self.limit = limit
        self._counter = counter

    @classmethod
    def create(cls, limit: int, ctx) -> "SharedKillSwitch":
        """A fresh shared counter under *ctx* (a multiprocessing context)."""
        return cls(limit, ctx.Value("q", 0))

    @property
    def counter(self):
        """The raw shared cell, for passing to a worker ``Process``."""
        return self._counter

    @property
    def count(self) -> int:
        return self._counter.value

    def tick(self) -> None:
        with self._counter.get_lock():
            self._counter.value += 1
            count = self._counter.value
        if count >= self.limit:
            raise CampaignKilled(count)


class CheckpointJournal:
    """One append-only journal and its result record."""

    def __init__(self, path: str) -> None:
        self.path = str(path)

    @property
    def state_path(self) -> str:
        return self.path + ".state"

    # -- journal writes -----------------------------------------------------------
    def start(self, header: Dict[str, Any]) -> None:
        """Begin a fresh journal (truncates any previous one).

        The old record goes first: a header on disk then always belongs to
        the run that wrote the record beside it, even if a kill lands
        between the two steps.
        """
        self.clear()
        record = {"type": "header", "version": JOURNAL_VERSION, **header}
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        with open(self.path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
            fh.flush()
            os.fsync(fh.fileno())

    def clear(self) -> None:
        """Remove the journal and its record, if present."""
        for path in (self.state_path, self.path):
            if os.path.exists(path):
                os.remove(path)

    def append(self, record: Dict[str, Any]) -> None:
        """Append one record; durable once this returns."""
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
            fh.flush()
            os.fsync(fh.fileno())

    # -- journal reads ------------------------------------------------------------
    @staticmethod
    def load(path: str, truncate: bool = False) -> List[Dict[str, Any]]:
        """Parse a journal, tolerating a torn final line.

        A crash mid-append (``kill -9`` between the write and the fsync
        landing in full) leaves a partial final record: either an
        unterminated tail or a terminated-but-unparsable last line.  Both
        mean the record was never durable, so both are *recovered*: the
        partial record is dropped from the parse and the returned header
        record carries a ``"recovered_bytes"`` note so resume reporting
        can say what was dropped.  Corruption anywhere *before* the final
        line is not a torn append and still raises.

        By default the file itself is left untouched -- a concurrent
        reader (a ``status`` poll against a live daemon's WAL, say) may
        observe a writer's append mid-flight, and truncating what it
        mistook for a torn tail would destroy a record the writer is
        about to fsync.  Only the journal's *owning writer*, on its own
        recovery path where no concurrent append can exist, passes
        ``truncate=True`` to cut the file back to its durable prefix
        before appending again (best-effort -- a read-only filesystem just
        skips the truncation).
        """
        records: List[Dict[str, Any]] = []
        with open(path, "rb") as fh:
            raw = fh.read()
        lines = raw.split(b"\n")
        # A well-formed journal ends with "\n", so the final split element
        # is empty; anything else is a torn tail.
        body, tail = lines[:-1], lines[-1]
        recovered = len(tail)
        for lineno, line in enumerate(body, start=1):
            if not line:
                continue
            try:
                records.append(json.loads(line.decode("utf-8")))
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                if lineno == len(body) and not tail:
                    # Terminated final line that does not parse: the tail
                    # of a torn append whose newline survived.  Recover it
                    # like an unterminated tail (newline included).
                    recovered = len(line) + 1
                    break
                raise ValueError(f"{path}:{lineno}: corrupt journal record: {exc}")
        if not records or records[0].get("type") != "header":
            raise ValueError(f"{path}: not a checkpoint journal (missing header)")
        if recovered:
            if truncate:
                try:
                    with open(path, "r+b") as fh:
                        fh.truncate(len(raw) - recovered)
                        fh.flush()
                        os.fsync(fh.fileno())
                except OSError:  # read-only media: tolerate without truncating
                    pass
            # Synthesized at load time, never written to disk: the header
            # on disk stays exactly the bytes the writer produced.
            records[0]["recovered_bytes"] = recovered
        return records

    def header(self) -> Dict[str, Any]:
        return self.load(self.path)[0]

    # -- result record ------------------------------------------------------------
    def save_state(self, payload: Any) -> None:
        """Atomically replace the record (temp file + fsync + rename)."""
        tmp = self.state_path + ".tmp"
        with open(tmp, "wb") as fh:
            pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.state_path)

    def load_state(self) -> Optional[Any]:
        """The record, or ``None`` if none was written."""
        if not os.path.exists(self.state_path):
            return None
        with open(self.state_path, "rb") as fh:
            return pickle.load(fh)
