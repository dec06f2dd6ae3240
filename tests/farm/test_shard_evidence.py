"""A blind shard ships home only the collector rows that saw evidence.

The shard folds against the whole corpus, because a stack frame may name a
component of another installed package, and returns
``collector.evidence()``; the study's merge seeds the component universe
from the corpus.  A result record written before shards shipped their
evidence holds a full-universe collector, and still merges to the same
study.
"""

import pickle

from repro.analysis.manifest import StudyCollector
from repro.experiments.config import QUICK
from repro.experiments.wear_experiment import run_wear_study
from repro.farm import shard as farm_shard
from repro.farm.shard import ShardSpec, run_shard
from repro.faults.journal import CheckpointJournal
from repro.qgj.campaigns import Campaign

#: Its quick shard crashes, hangs and reboots the watch once.
PACKAGE = "com.pulsetrack.wear"
PACKAGES = [PACKAGE, "com.cardiowatch.wear"]


def _shard(package=PACKAGE):
    spec = ShardSpec(
        study="wear",
        index=0,
        key=package,
        packages=(package,),
        campaigns=tuple(Campaign),
        config=QUICK,
        seed=0,
    )
    return run_shard(spec)


def _full_universe(monkeypatch):
    """Make shards ship their whole collector, as they did before."""
    monkeypatch.setattr(StudyCollector, "evidence", lambda self: self)


def test_one_package_shard_ships_only_rows_with_evidence(monkeypatch):
    result = _shard()
    assert len(pickle.dumps(result)) < 32 * 1024
    shipped = result.collector.component_records()
    assert shipped and all(record.saw_evidence() for record in shipped)
    assert result.collector.reboots
    assert result.collector.package_meta(PACKAGE) is None

    _full_universe(monkeypatch)
    folded = _shard().collector.component_records()
    assert [record for record in folded if record.saw_evidence()] == shipped
    assert len(folded) > 10 * len(shipped)


def _same_study(left, right):
    assert left.collector.component_records() == right.collector.component_records()
    assert left.collector.app_campaign == right.collector.app_campaign
    assert left.collector.reboots == right.collector.reboots
    assert left.collector.segments_folded == right.collector.segments_folded
    assert left.render() == right.render()


def test_full_universe_result_records_resume_to_the_same_study(tmp_path, monkeypatch):
    fresh = run_wear_study(QUICK, packages=PACKAGES)
    journal = str(tmp_path / "study.jsonl")
    with monkeypatch.context() as patch:
        _full_universe(patch)
        _same_study(run_wear_study(QUICK, packages=PACKAGES, journal_path=journal), fresh)
    universe = len(fresh.collector.component_records())
    for index in range(len(PACKAGES)):
        record = CheckpointJournal(f"{journal}.shard-{index:03d}").load_state()
        assert len(record.collector.component_records()) == universe

    def no_rerun(*args, **kwargs):
        raise AssertionError("a finished shard re-ran instead of loading its record")

    monkeypatch.setattr(farm_shard, "build_rig", no_rerun)
    _same_study(run_wear_study(QUICK, journal_path=journal, resume=True), fresh)
