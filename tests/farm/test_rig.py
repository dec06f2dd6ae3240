"""The three test beds :func:`repro.farm.build_rig` builds.

Every device the program fuzzes comes from this one recipe, so each bed's
shape is pinned here: the fuzzed device, its paired peer, what is
installed on it, the sender the fuzzer injects as, and which apps the
ambient service expects to bind.
"""

from repro.android.clock import Clock
from repro.android.runtime import RuntimeContext
from repro.apps.builtin import AMBIENT_BINDER_PACKAGE
from repro.apps.catalog import build_wear_corpus, emulator_packages
from repro.apps.profiles import FLEET_COHORTS
from repro.experiments.config import QUICK
from repro.farm import build_rig
from repro.faults.journal import KillSwitch
from repro.qgj.fuzzer import QGJ_MOBILE_PACKAGE, QGJ_WEAR_PACKAGE
from repro.wear.device import PhoneDevice, WearDevice


def _installed(device):
    return [package.package for package in device.packages.installed_packages()]


def _peer(device):
    return device.node.link.peer_of(device.node).node_id.value


class TestWearBed:
    def test_a_moto360_paired_with_a_nexus4_carrying_the_corpus_and_qgj(self):
        corpus, fuzzer = build_rig(QUICK)
        watch = fuzzer.device
        assert isinstance(watch, WearDevice) and not watch.is_emulator
        assert (watch.name, watch.model) == ("moto360", "Moto 360")
        assert _peer(watch) == "node-nexus4"
        assert len(corpus.apps) == 46
        assert _installed(watch) == [p.package for p in corpus.packages()] + [QGJ_WEAR_PACKAGE]
        assert fuzzer.sender_package == QGJ_WEAR_PACKAGE
        assert watch.ambient.expected_binders() == {AMBIENT_BINDER_PACKAGE}


class TestPhoneBed:
    def test_a_lone_nexus6_carrying_the_android_apps(self):
        corpus, fuzzer = build_rig(QUICK, "phone")
        phone = fuzzer.device
        assert isinstance(phone, PhoneDevice)
        assert (phone.name, phone.model) == ("nexus6", "Nexus 6")
        assert phone.node.link is None
        installed = _installed(phone)
        assert len(installed) == 63
        assert all(name.startswith("com.android.") for name in installed)
        assert installed == [p.package for p in corpus.packages()]
        assert fuzzer.sender_package == QGJ_MOBILE_PACKAGE
        assert not hasattr(phone, "ambient")


class TestEmulatorBed:
    def test_an_emulator_paired_with_a_nexus6_carrying_the_selection(self):
        _, fuzzer = build_rig(QUICK, "emulator")
        emulator = fuzzer.device
        assert isinstance(emulator, WearDevice) and emulator.is_emulator
        assert (emulator.name, emulator.model) == (
            "watch-emulator",
            "Android Watch Emulator (API 25)",
        )
        assert _peer(emulator) == "node-nexus6"
        selection = emulator_packages(build_wear_corpus(seed=QUICK.corpus_seed))
        assert sorted(_installed(emulator)) == sorted(p.package for p in selection)
        assert not any(p.vendor for p in emulator.packages.installed_packages())
        assert not emulator.packages.is_installed(QGJ_WEAR_PACKAGE)
        assert fuzzer.sender_package == QGJ_WEAR_PACKAGE
        assert emulator.ambient.expected_binders() == {AMBIENT_BINDER_PACKAGE}
        assert emulator.boot_count == 1


class TestFleetPair:
    def test_a_profiled_pair_installs_its_slice_on_the_given_clock(self):
        corpus = build_wear_corpus(seed=QUICK.corpus_seed)
        packages = tuple(p.package for p in corpus.packages()[:2])
        profile = FLEET_COHORTS["budget"]
        runtime, kill_switch, clock = RuntimeContext(), KillSwitch(10), Clock()
        returned, fuzzer = build_rig(
            QUICK,
            "wear",
            runtime,
            kill_switch,
            corpus=corpus,
            packages=packages,
            profile=profile,
            pair_id=7,
            clock=clock,
        )
        watch = fuzzer.device
        assert returned is corpus
        assert (watch.name, watch.model) == ("watch-0007", profile.model)
        assert _peer(watch) == "node-phone-0007"
        assert watch.node.link.latency_ms == profile.latency_ms
        assert _installed(watch) == list(packages) + [QGJ_WEAR_PACKAGE]
        assert watch.clock is clock
        assert watch.runtime is runtime
        assert fuzzer.kill_switch is kill_switch
        assert fuzzer.sender_package == QGJ_WEAR_PACKAGE
