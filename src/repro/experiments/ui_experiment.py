"""The QGJ-UI study on the Watch emulator (Section III-E / Table V).

"For this experiment, we used an Android Watch emulator (Android 7.1.1,
API level 25) and paired it with a Nexus 6 phone.  The choice of the Watch
emulator […] was so that we could study the core functionality in isolation
rather than together with the vendor-specific extensions."

The emulator -- :func:`~repro.farm.shard.build_rig`'s ``emulator`` bed --
therefore carries the non-vendor built-ins plus the top-20 third-party
apps, and both mutation modes replay the *same* monkey stream.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Tuple

from repro.apps.catalog import Corpus
from repro.experiments.config import QUICK, ExperimentConfig
from repro.farm.shard import build_rig
from repro.qgj.ui_fuzzer import MutationMode, QGJUi, UiInjectionResult


@dataclasses.dataclass
class UiStudyResult:
    """Table V's rows, plus the facts about the emulator its callers check.

    The emulator itself is shut down when the study returns, so the result
    records what was read from it: how often it booted, that it is the
    emulator, and which installed packages are vendor packages.
    """

    results: Dict[str, UiInjectionResult]
    corpus: Corpus
    config: ExperimentConfig
    boot_count: int
    is_emulator: bool
    vendor_packages: Tuple[str, ...]

    @property
    def semi_valid(self) -> UiInjectionResult:
        return self.results[MutationMode.SEMI_VALID]

    @property
    def random(self) -> UiInjectionResult:
        return self.results[MutationMode.RANDOM]


def run_ui_study(config: ExperimentConfig = QUICK) -> UiStudyResult:
    """Run QGJ-UI at *config*'s event volume, both mutation modes.

    The emulator bed (and its paired phone) is shut down once the result
    is built, so reference counting frees it on return.
    """
    corpus, fuzzer = build_rig(config, "emulator")
    emulator = fuzzer.device
    try:
        results = QGJUi(emulator, seed=config.ui_seed).run(config.ui_events)
        return UiStudyResult(
            results=results,
            corpus=corpus,
            config=config,
            boot_count=emulator.boot_count,
            is_emulator=emulator.is_emulator,
            vendor_packages=tuple(
                package.package
                for package in emulator.packages.installed_packages()
                if package.vendor
            ),
        )
    finally:
        emulator.shutdown()
