"""Shard specs and results must survive the ``spawn`` start method.

``fork`` is the farm's preferred context, but macOS/Windows default to
``spawn``, where nothing is inherited: the spec must round-trip through a
real pickle and the worker must rebuild the entire device tree from it.
These tests force ``spawn`` explicitly so the portability contract is
exercised even on Linux CI.
"""

import pickle

import pytest

from repro.experiments.config import QUICK
from repro.farm import plan_shards, run_shard, supervise_shards
from repro.farm.supervisor import SupervisionPolicy, mp_context
from repro.qgj.campaigns import Campaign

PKG = "com.pulsetrack.wear"


def _spec():
    (spec,) = plan_shards("wear", QUICK, [PKG], (Campaign.A,), base_plan=None)
    return spec


def test_shard_spec_round_trips_through_pickle():
    spec = _spec()
    clone = pickle.loads(pickle.dumps(spec))
    assert clone == spec


def test_shard_result_round_trips_through_pickle():
    result = run_shard(_spec())
    clone = pickle.loads(pickle.dumps(result))
    assert clone.key == result.key
    assert clone.summary.to_wire() == result.summary.to_wire()
    assert clone.clock_ms == result.clock_ms


def test_shard_result_ships_no_device():
    data = pickle.dumps(run_shard(_spec()))
    for name in (b"WearDevice", b"PhoneDevice", b"Logcat"):
        assert name not in data


@pytest.mark.skipif(
    "spawn" not in __import__("multiprocessing").get_all_start_methods(),
    reason="spawn start method unavailable",
)
def test_spawned_worker_reproduces_the_in_process_shard():
    reference = run_shard(_spec())
    with mp_context("spawn").Pool(processes=1) as pool:
        (spawned,) = pool.map(run_shard, [_spec()])
    assert spawned.summary.to_wire() == reference.summary.to_wire()
    assert spawned.clock_ms == reference.clock_ms


@pytest.mark.skipif(
    "spawn" not in __import__("multiprocessing").get_all_start_methods(),
    reason="spawn start method unavailable",
)
def test_supervised_execution_works_under_spawn():
    reference = supervise_shards([_spec()], workers=1)
    spawned = supervise_shards(
        [_spec()], workers=2, policy=SupervisionPolicy(start_method="spawn")
    )
    (ref_result,) = reference.results
    (spawn_result,) = spawned.results
    assert spawn_result.summary.to_wire() == ref_result.summary.to_wire()
