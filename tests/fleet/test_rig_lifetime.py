"""A finished test bed is freed by reference counting, and shutdown is silent.

Every study path that builds a bed shuts both of its devices down when it
returns (``Device.shutdown``), so the device tree holds no reference cycle
and is freed the moment its owner lets go, not at the next full collection.
The lifetime tests run with the cyclic collector off: anything still alive
afterwards is something only a collection would have freed.
"""

import gc
import weakref

import pytest

from repro.android.clock import Clock
from repro.android.runtime import RuntimeContext
from repro.experiments.ablations import ablate_pacing
from repro.experiments.config import QUICK, ExperimentConfig
from repro.experiments.ui_experiment import run_ui_study
from repro.farm import shard as farm_shard
from repro.farm.shard import ShardSpec, build_rig, run_shard
from repro.fleet import pair_task, plan_pairs, shared_corpus
from repro.qgj.campaigns import Campaign
from repro.qgj.fuzzer import FuzzConfig, FuzzerLibrary
from repro.qgj.ui_fuzzer import QGJUi
from repro.telemetry import session
from repro.telemetry.exporters import render_prometheus

#: fleet_screen's per-pair budget: one campaign-B intent per component.
SCREEN = ExperimentConfig(
    name="screen",
    fuzz=FuzzConfig(stride=8, max_intents_per_component=1),
    ui_events=0,
)
PACKAGE = "com.pulsetrack.wear"


class _BedWatcher:
    """Weak references to one bed's parts, taken as it is built and run."""

    def __init__(self, monkeypatch) -> None:
        self.refs = {}
        pair = farm_shard.pair

        def recording_pair(phone, watch, **kwargs):
            self.refs["watch"] = weakref.ref(watch)
            self.refs["phone"] = weakref.ref(phone)
            self.refs["logcat"] = weakref.ref(watch.logcat)
            return pair(phone, watch, **kwargs)

        # Every paired bed is built by build_rig, which pairs it here.
        monkeypatch.setattr(farm_shard, "pair", recording_pair)

    def sample(self) -> None:
        """Take an app process record and a live component, once each."""
        watch = self.refs["watch"]()
        if "process" not in self.refs:
            apps = [proc for proc in watch.processes.live_processes() if not proc.is_system]
            if apps:
                self.refs["process"] = weakref.ref(apps[0])
        if "component" not in self.refs:
            for package in watch.packages.installed_packages():
                for info in package.components:
                    component = watch.activity_manager.live_component(info)
                    if component is not None:
                        self.refs["component"] = weakref.ref(component)
                        return

    def alive(self):
        assert set(self.refs) == {"watch", "phone", "logcat", "process", "component"}
        return sorted(name for name, ref in self.refs.items() if ref() is not None)


@pytest.fixture
def collector_off():
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _trampoline(task, clock, watcher):
    """Drive a pair task as a blocking run would, sampling between steps."""
    try:
        deadline = next(task)
        while True:
            watcher.sample()
            clock.advance_to(deadline)
            deadline = task.send(None)
    except StopIteration as stop:
        return stop.value


@pytest.mark.parametrize("armed", [False, True], ids=["clean", "armed"])
def test_fleet_pair_frees_its_bed_when_it_returns(monkeypatch, collector_off, armed):
    corpus = shared_corpus(SCREEN.corpus_seed)
    specs = plan_pairs(8, "flagship,budget", SCREEN, [PACKAGE], (Campaign.B,))
    spec = next(spec for spec in specs if (spec.plan is not None) == armed)
    watcher = _BedWatcher(monkeypatch)
    clock = Clock()
    summary = _trampoline(pair_task(spec, corpus, clock=clock), clock, watcher)
    assert summary.sent > 0
    assert watcher.alive() == []


def test_wear_shard_frees_its_bed_when_it_returns(monkeypatch, collector_off):
    watcher = _BedWatcher(monkeypatch)
    segment = farm_shard.run_segment

    def sampled_segment(*args, **kwargs):
        result = segment(*args, **kwargs)
        watcher.sample()
        return result

    monkeypatch.setattr(farm_shard, "run_segment", sampled_segment)
    spec = ShardSpec(
        study="wear",
        index=0,
        key=PACKAGE,
        packages=(PACKAGE,),
        campaigns=(Campaign.B,),
        config=QUICK,
        seed=0,
    )
    result = run_shard(spec)
    assert result.summary.total_sent > 0
    assert watcher.alive() == []


def test_ablation_row_frees_its_bed(monkeypatch, collector_off):
    watcher = _BedWatcher(monkeypatch)
    fuzz_app = FuzzerLibrary.fuzz_app

    def sampled_fuzz_app(self, *args, **kwargs):
        result = fuzz_app(self, *args, **kwargs)
        watcher.sample()
        return result

    monkeypatch.setattr(FuzzerLibrary, "fuzz_app", sampled_fuzz_app)
    (row,) = ablate_pacing((16_000.0,))
    assert row.crashes_seen > 0
    assert watcher.alive() == []


def test_ui_study_frees_its_bed(monkeypatch, collector_off):
    watcher = _BedWatcher(monkeypatch)
    run = QGJUi.run

    def sampled_run(self, *args, **kwargs):
        results = run(self, *args, **kwargs)
        watcher.sample()
        return results

    monkeypatch.setattr(QGJUi, "run", sampled_run)
    study = run_ui_study(
        ExperimentConfig(name="tiny", fuzz=FuzzConfig(), ui_events=300, ui_seed=25)
    )
    assert study.semi_valid.injected_events == 300
    assert study.boot_count == 1
    assert watcher.alive() == []


def test_shutdown_is_silent_and_final():
    with session() as handle:
        _, fuzzer = build_rig(QUICK, "wear", RuntimeContext(telemetry_handle=handle))
        watch = fuzzer.device
        phone = watch.paired_phone
        fuzzer.fuzz_app(PACKAGE, Campaign.B, SCREEN.fuzz)
        logs = [(device.logcat, list(device.logcat.records())) for device in (watch, phone)]
        clocks = [(device.clock, device.clock.now_ms()) for device in (watch, phone)]
        called = []
        processes = watch.processes.live_processes()
        assert any(not proc.is_system for proc in processes)
        for proc in processes:
            proc.link_to_death(called.append)
        watch.clock.call_after(1.0, lambda: called.append("timer"))
        metrics = render_prometheus(handle.metrics)
        spans = len(handle.tracer.spans())

        watch.shutdown()

        assert called == []
        for logcat, records in logs:
            assert list(logcat.records()) == records
        for clock, now_ms in clocks:
            assert clock.now_ms() == now_ms
            assert clock.pending_count() == 0
        assert render_prometheus(handle.metrics) == metrics
        assert len(handle.tracer.spans()) == spans
    assert watch.shut_down and phone.shut_down
    watch.shutdown()  # a second shutdown does nothing
    with pytest.raises(AttributeError):
        fuzzer.fuzz_app(PACKAGE, Campaign.B, SCREEN.fuzz)
