"""The study manifest: one journal header over per-shard checkpoint files.

A sharded study cannot checkpoint into a single journal -- shards run
concurrently and each records its own result.  Instead the manifest
file (the path the operator passes to ``--journal``) records the study-wide
facts once -- the study kind, config, fault-plan fingerprint, package list,
campaigns, and the worker count -- plus the shard table mapping each shard
to its own ``<manifest>.shard-NNN`` checkpoint journal.

Resume validation happens here, before any shard is spawned: a journal of
another study kind, config, fault plan or ``--workers`` count is refused
untouched, with an error saying exactly what to change.
The worker count is part of the contract not for determinism (results are
worker-count independent) but because silently resuming under different
parallelism would make the wall-clock bookkeeping in the bench artifacts
lie.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.faults.journal import CheckpointJournal

MANIFEST_VERSION = 1


class StudyManifest:
    """Header + shard table for one sharded, journalled study."""

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self._journal = CheckpointJournal(self.path)

    def shard_journal_path(self, index: int) -> str:
        return f"{self.path}.shard-{index:03d}"

    def start(
        self,
        *,
        config: str,
        fault_fingerprint: str,
        packages: Sequence[str],
        campaigns: Sequence[str],
        workers: int,
        shards: Sequence[Any],
        extra: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Write the manifest header (truncating any previous manifest).

        The header names the study, the ``ShardSpec.study`` every shard
        carries.  *extra* carries study-kind specific facts (the fleet study
        records its fleet size, cohort spec and lane count here) so a resume
        can rebuild the exact plan without the operator repeating the flags.

        A fresh study owns its shard files: whatever an earlier run left
        at a listed shard's path is removed before the header is written,
        so a resume of this study never finds a record it did not write.
        """
        for spec in shards:
            CheckpointJournal(self.shard_journal_path(spec.index)).clear()
        header = {
            "kind": "study-manifest",
            "manifest_version": MANIFEST_VERSION,
            "study": shards[0].study,
            "config": config,
            "fault_fingerprint": fault_fingerprint,
            "packages": list(packages),
            "campaigns": list(campaigns),
            "workers": workers,
            "shards": [
                {
                    "index": spec.index,
                    "key": spec.key,
                    "packages": list(spec.packages),
                    "journal": self.shard_journal_path(spec.index),
                }
                for spec in shards
            ],
        }
        if extra:
            header.update(extra)
        self._journal.start(header)

    def header(self) -> Dict[str, Any]:
        return self._journal.header()

    def shard_table(self) -> List[Dict[str, Any]]:
        return list(self.header().get("shards", []))

    def validate_resume(
        self, *, study: str, config: str, fault_fingerprint: str, workers: int
    ) -> Dict[str, Any]:
        """Check the manifest matches the live run, kind first; return its header.

        A header without a study kind was written by a wear study.
        """
        header = self.header()
        recorded_study = header.get("study", "wear")
        if recorded_study != study:
            raise ValueError(
                f"journal {self.path} was recorded by a {recorded_study!r} "
                f"study, not a {study} study"
            )
        if header.get("config") != config:
            raise ValueError(
                f"journal {self.path} was recorded under config "
                f"{header.get('config')!r}, not {config!r}"
            )
        if header.get("fault_fingerprint") != fault_fingerprint:
            raise ValueError(
                f"journal {self.path} was recorded under fault plan "
                f"{header.get('fault_fingerprint')!r}; the installed plan is "
                f"{fault_fingerprint!r} -- resume under the original plan"
            )
        recorded = header.get("workers", 1)
        if recorded != workers:
            raise ValueError(
                f"journal {self.path} was recorded with --workers {recorded}, "
                f"not --workers {workers} -- resume with --workers {recorded}"
            )
        return header
