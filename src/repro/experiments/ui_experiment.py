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
from typing import Dict

from repro.apps.catalog import Corpus
from repro.experiments.config import QUICK, ExperimentConfig
from repro.farm.shard import build_rig
from repro.qgj.ui_fuzzer import MutationMode, QGJUi, UiInjectionResult
from repro.wear.device import WearDevice


@dataclasses.dataclass
class UiStudyResult:
    results: Dict[str, UiInjectionResult]
    emulator: WearDevice
    corpus: Corpus
    config: ExperimentConfig

    @property
    def semi_valid(self) -> UiInjectionResult:
        return self.results[MutationMode.SEMI_VALID]

    @property
    def random(self) -> UiInjectionResult:
        return self.results[MutationMode.RANDOM]


def run_ui_study(config: ExperimentConfig = QUICK) -> UiStudyResult:
    """Run QGJ-UI at *config*'s event volume, both mutation modes."""
    corpus, fuzzer = build_rig(config, "emulator")
    emulator = fuzzer.device
    results = QGJUi(emulator, seed=config.ui_seed).run(config.ui_events)
    return UiStudyResult(results=results, emulator=emulator, corpus=corpus, config=config)
