"""Tests for the checkpoint journal: durability, torn tails, result records."""

import json

import pytest

from repro.faults.errors import CampaignKilled
from repro.faults.journal import JOURNAL_VERSION, CheckpointJournal, KillSwitch


def _segments(journal):
    return [r for r in CheckpointJournal.load(journal.path) if r.get("type") == "segment"]


class TestKillSwitch:
    def test_raises_at_limit_with_count(self):
        switch = KillSwitch(limit=3)
        switch.tick()
        switch.tick()
        with pytest.raises(CampaignKilled) as exc_info:
            switch.tick()
        assert exc_info.value.injections == 3

    def test_rejects_nonpositive_limit(self):
        with pytest.raises(ValueError):
            KillSwitch(limit=0)


class TestJournal:
    def test_header_and_segments_roundtrip(self, tmp_path):
        journal = CheckpointJournal(str(tmp_path / "run.jsonl"))
        journal.start({"config": "quick", "fault_fingerprint": "none"})
        journal.append({"type": "segment", "index": 0, "package": "com.a"})
        journal.append({"type": "segment", "index": 1, "package": "com.b"})
        header = journal.header()
        assert header["type"] == "header"
        assert header["version"] == JOURNAL_VERSION
        assert header["config"] == "quick"
        assert [s["package"] for s in _segments(journal)] == ["com.a", "com.b"]

    def test_start_truncates_previous_run_and_stale_state(self, tmp_path):
        journal = CheckpointJournal(str(tmp_path / "run.jsonl"))
        journal.start({"config": "quick"})
        journal.append({"type": "segment", "index": 0})
        journal.save_state({"index": 1})
        journal.start({"config": "quick"})
        assert _segments(journal) == []
        assert journal.load_state() is None

    def test_torn_tail_is_dropped(self, tmp_path):
        path = tmp_path / "run.jsonl"
        journal = CheckpointJournal(str(path))
        journal.start({"config": "quick"})
        journal.append({"type": "segment", "index": 0})
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"type": "segment", "index": 1, "pack')  # crash mid-write
        records = CheckpointJournal.load(str(path))
        assert [r.get("index") for r in records if r["type"] == "segment"] == [0]

    def test_torn_tail_is_truncated_and_noted(self, tmp_path):
        path = tmp_path / "run.jsonl"
        journal = CheckpointJournal(str(path))
        journal.start({"config": "quick"})
        journal.append({"type": "segment", "index": 0})
        durable = path.stat().st_size
        torn = '{"type": "segment", "index": 1, "pack'
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(torn)
        records = CheckpointJournal.load(str(path), truncate=True)
        assert records[0]["recovered_bytes"] == len(torn)
        # The file shrank back to its durable prefix...
        assert path.stat().st_size == durable
        # ...the on-disk header carries no synthesized note...
        assert "recovered_bytes" not in CheckpointJournal.load(str(path))[0]
        # ...and the journal keeps working: appends after recovery parse.
        journal.append({"type": "segment", "index": 1})
        assert [s["index"] for s in _segments(journal)] == [0, 1]

    def test_terminated_but_unparsable_final_line_is_recovered(self, tmp_path):
        # fsync guarantees ordering, not atomicity: a torn append can land
        # with its trailing newline but only part of its content.
        path = tmp_path / "run.jsonl"
        journal = CheckpointJournal(str(path))
        journal.start({"config": "quick"})
        journal.append({"type": "segment", "index": 0})
        durable = path.stat().st_size
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"type": "segment", "ind\n')
        records = CheckpointJournal.load(str(path), truncate=True)
        assert records[0]["recovered_bytes"] == len('{"type": "segment", "ind\n')
        assert path.stat().st_size == durable
        assert [r.get("index") for r in records if r["type"] == "segment"] == [0]

    def test_load_leaves_the_file_alone_by_default(self, tmp_path):
        # Readers may be observing a live writer's in-flight append, so
        # the default load never modifies the file -- only the owning
        # writer truncates (truncate=True).
        path = tmp_path / "run.jsonl"
        journal = CheckpointJournal(str(path))
        journal.start({"config": "quick"})
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"torn')
        size = path.stat().st_size
        records = CheckpointJournal.load(str(path))
        assert records[0]["recovered_bytes"] == len('{"torn')
        assert path.stat().st_size == size

    def test_corrupt_interior_record_is_an_error(self, tmp_path):
        path = tmp_path / "run.jsonl"
        journal = CheckpointJournal(str(path))
        journal.start({"config": "quick"})
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("not json at all\n")
            fh.write(json.dumps({"type": "segment", "index": 0}) + "\n")
        with pytest.raises(ValueError, match="corrupt"):
            CheckpointJournal.load(str(path))

    def test_missing_header_is_an_error(self, tmp_path):
        path = tmp_path / "bare.jsonl"
        path.write_text(json.dumps({"type": "segment", "index": 0}) + "\n")
        with pytest.raises(ValueError, match="header"):
            CheckpointJournal.load(str(path))

    def test_state_snapshot_roundtrip_and_absence(self, tmp_path):
        journal = CheckpointJournal(str(tmp_path / "run.jsonl"))
        assert journal.load_state() is None
        payload = {"index": 3, "blob": list(range(10))}
        journal.save_state(payload)
        assert journal.load_state() == payload
        journal.save_state({"index": 4})
        assert journal.load_state() == {"index": 4}
