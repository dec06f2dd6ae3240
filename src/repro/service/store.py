"""The persistent results/corpus store: what the service accumulates.

The batch runner memoises studies per ``(config, fault_fingerprint)`` in a
process dict that dies with the process.  The store generalizes that cache
into something a service can trust across restarts:

* ``reports/<fingerprint>.txt`` -- the rendered study report, written
  atomically (temp file, fsync, rename), so a crash never leaves a
  half-report to serve;
* ``index.jsonl`` -- a checkpoint journal of study and segment records.
  Study records map a spec fingerprint to its report and digest (the
  durable memo the daemon answers resubmissions from); segment records
  key per-``(app, campaign, seed)`` outcome counts, so "what has campaign
  B ever done to this package under seed 17" is a query, not a re-run;
* ``corpus.jsonl`` -- one behaviour corpus for the whole service, merged
  (:meth:`~repro.guided.corpus.BehaviorCorpus.merge` -- deterministic,
  order-independent) with every guided study's discoveries, so knowledge
  of interesting intents accumulates across submissions instead of
  resetting per run.

Writes are idempotent by construction: studies are deterministic, so
re-storing a fingerprint after a crash-and-resume produces the same bytes,
and the index load deduplicates by fingerprint.  The commit point for "the
study is done" is the WAL's ``complete`` record, not the store -- the
store only has to be at-least-as-complete as the WAL claims, which
re-execution after a crash guarantees.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.faults.journal import CheckpointJournal

if TYPE_CHECKING:  # pragma: no cover - guided loads only for guided studies
    from repro.guided.corpus import BehaviorCorpus

INDEX_VERSION = 1


@dataclasses.dataclass(frozen=True)
class StoredStudy:
    """One completed study as the store serves it back."""

    fingerprint: str
    digest: str
    report_path: str
    spec_wire: Dict[str, object]

    def report_text(self) -> str:
        with open(self.report_path, "r", encoding="utf-8") as fh:
            return fh.read()


@dataclasses.dataclass(frozen=True)
class SegmentRecord:
    """Per-(app, campaign, seed) outcome counts of one stored study."""

    app: str
    campaign: str
    seed: int
    fingerprint: str          # the study that produced it
    counts: Dict[str, int]


class ResultStore:
    """Durable, restart-surviving results under ``<root>/store/``.

    The daemon owns the store and opens it as the *writer* (the default):
    it creates the layout, repairs a torn index tail on load, and appends.
    Offline clients open with ``writer=False`` -- a read-only view that
    creates nothing, never truncates (a torn-looking tail may be a live
    daemon's append in flight), and loads empty when no index exists.
    """

    def __init__(self, root: str, writer: bool = True) -> None:
        self.root = str(root)
        self.writer = writer
        self.reports_dir = os.path.join(self.root, "reports")
        self.index_path = os.path.join(self.root, "index.jsonl")
        self.corpus_path = os.path.join(self.root, "corpus.jsonl")
        self._index = CheckpointJournal(self.index_path)
        if writer:
            os.makedirs(self.reports_dir, exist_ok=True)
            if not os.path.exists(self.index_path):
                self._index.start(
                    {"kind": "result-store", "index_version": INDEX_VERSION}
                )
        self._studies: Dict[str, StoredStudy] = {}
        self._segments: List[SegmentRecord] = []
        self._load()

    def _load(self) -> None:
        if not self.writer and not os.path.exists(self.index_path):
            return  # read-only view over a root with no store yet
        records = CheckpointJournal.load(self.index_path, truncate=self.writer)
        header = records[0]
        if header.get("kind") != "result-store":
            raise ValueError(f"{self.index_path}: not a result-store index")
        for record in records[1:]:
            kind = record.get("type")
            if kind == "study":
                fingerprint = record["fingerprint"]
                if fingerprint in self._studies:
                    continue  # idempotent re-store after a crash
                self._studies[fingerprint] = StoredStudy(
                    fingerprint=fingerprint,
                    digest=record.get("digest", ""),
                    report_path=os.path.join(self.reports_dir, f"{fingerprint}.txt"),
                    spec_wire=dict(record.get("spec", {})),
                )
            elif kind == "segment":
                self._segments.append(
                    SegmentRecord(
                        app=record["app"],
                        campaign=record["campaign"],
                        seed=int(record["seed"]),
                        fingerprint=record.get("fingerprint", ""),
                        counts={k: int(v) for k, v in record.get("counts", {}).items()},
                    )
                )

    # -- queries ------------------------------------------------------------------
    def get(self, fingerprint: str) -> Optional[StoredStudy]:
        study = self._studies.get(fingerprint)
        if study is not None and not os.path.exists(study.report_path):
            # Indexed but the report vanished (operator deleted it): treat
            # as absent so the study re-runs rather than serving a 500.
            return None
        return study

    def studies(self) -> List[StoredStudy]:
        return [self._studies[f] for f in sorted(self._studies)]

    def segments(
        self,
        app: Optional[str] = None,
        campaign: Optional[str] = None,
        seed: Optional[int] = None,
    ) -> List[SegmentRecord]:
        return [
            segment
            for segment in self._segments
            if (app is None or segment.app == app)
            and (campaign is None or segment.campaign == campaign)
            and (seed is None or segment.seed == seed)
        ]

    # -- writes -------------------------------------------------------------------
    @staticmethod
    def digest_of(report_text: str) -> str:
        return hashlib.sha256(report_text.encode("utf-8")).hexdigest()

    def put_study(
        self,
        fingerprint: str,
        spec_wire: Dict[str, object],
        report_text: str,
        segments: Optional[List[SegmentRecord]] = None,
    ) -> StoredStudy:
        """Persist a completed study; idempotent per fingerprint.

        Order matters for crash-safety: the report bytes land (atomically)
        before the index record that points at them, so the index never
        references a missing or partial report.
        """
        if not self.writer:
            raise RuntimeError(f"{self.root}: read-only store cannot put_study")
        existing = self._studies.get(fingerprint)
        if existing is not None and os.path.exists(existing.report_path):
            return existing
        report_path = os.path.join(self.reports_dir, f"{fingerprint}.txt")
        tmp = report_path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(report_text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, report_path)
        digest = self.digest_of(report_text)
        if existing is None:
            self._index.append(
                {
                    "type": "study",
                    "fingerprint": fingerprint,
                    "digest": digest,
                    "spec": dict(spec_wire),
                }
            )
            for segment in segments or []:
                self._index.append(
                    {
                        "type": "segment",
                        "app": segment.app,
                        "campaign": segment.campaign,
                        "seed": segment.seed,
                        "fingerprint": segment.fingerprint,
                        "counts": dict(segment.counts),
                    }
                )
                self._segments.append(segment)
        stored = StoredStudy(
            fingerprint=fingerprint,
            digest=digest,
            report_path=report_path,
            spec_wire=dict(spec_wire),
        )
        self._studies[fingerprint] = stored
        return stored

    # -- corpus accumulation ------------------------------------------------------
    def corpus(self) -> "BehaviorCorpus":
        from repro.guided.corpus import BehaviorCorpus

        if os.path.exists(self.corpus_path):
            return BehaviorCorpus.load(self.corpus_path)
        return BehaviorCorpus()

    def merge_corpus(self, corpus: "BehaviorCorpus") -> "BehaviorCorpus":
        """Fold *corpus* into the persistent one; returns the merged corpus.

        The merge is deterministic and order-independent, so re-merging
        the same corpus after a crash cannot change the stored bytes, and
        any submission order of guided studies converges on one corpus.
        """
        if not self.writer:
            raise RuntimeError(f"{self.root}: read-only store cannot merge_corpus")
        from repro.guided.corpus import BehaviorCorpus

        merged = BehaviorCorpus.merge([self.corpus(), corpus])
        tmp_path = self.corpus_path + ".tmp"
        merged.save(tmp_path)
        os.replace(tmp_path, self.corpus_path)
        # BehaviorCorpus.save leaves no state snapshot, but be tidy if a
        # previous crash left one behind.
        stale = tmp_path + ".state"
        if os.path.exists(stale):  # pragma: no cover - crash-window debris
            os.remove(stale)
        return merged
