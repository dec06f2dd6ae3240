"""The Android-phone comparison study (Section IV-C / Table IV).

"Since previous works targeted earlier version of Android, we decided to
run similar experiments on a mobile phone to have a more accurate
comparison between the Android and AW ecosystem.  The experiments included
all four campaigns, targeting a Nexus 6 running Android 7.1.1 […] After
filtering the apps by the prefix com.android, we found 63 apps (595
Activities and 218 Services)."

The phone study is the wear study on another test bed: it runs through
:func:`~repro.experiments.wear_experiment.run_wear_study` with
``kind="phone"``, so every package is a shard on its own fresh Nexus 6
(:func:`~repro.farm.shard.build_rig`'s ``phone`` bed) and ``workers=N``
fans the shards out with bit-identical merged results.  It exposes no
checkpoint journal.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.experiments.config import QUICK, ExperimentConfig
from repro.experiments.wear_experiment import StudyResult, run_wear_study
from repro.qgj.campaigns import Campaign


def run_phone_study(
    config: ExperimentConfig = QUICK,
    packages: Optional[Sequence[str]] = None,
    campaigns: Sequence[Campaign] = tuple(Campaign),
    workers: int = 1,
    shard_timeout: Optional[float] = None,
    max_shard_attempts: Optional[int] = None,
    allow_partial: bool = False,
) -> StudyResult:
    """Run the four campaigns against the ``com.android.*`` population.

    The supervision knobs are :func:`run_wear_study`'s: per-shard deadline,
    bounded retries, and -- with *allow_partial* -- poison quarantine with a
    degraded study instead of an aborted one.
    """
    return run_wear_study(
        config,
        packages,
        campaigns,
        workers=workers,
        shard_timeout=shard_timeout,
        max_shard_attempts=max_shard_attempts,
        allow_partial=allow_partial,
        kind="phone",
    )
