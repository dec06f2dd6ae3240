#!/usr/bin/env python3
"""Fuzz the Health/Fitness category and classify every app's behaviour.

The paper's motivating question: are health/fitness apps -- which depend on
the Google Fit API and the sensor stack -- less robust than other wearable
apps?  This example runs all four Fuzz Intent Campaigns against the 13
Health/Fitness apps, folds the logs through the analysis pipeline, and
prints each app's most severe manifestation per campaign (the Table III
view, restricted to the health column).

Run:  python examples/fitness_campaign.py
"""

from repro.analysis.manifest import Manifestation, StudyCollector
from repro.android.package_manager import AppCategory
from repro.apps.catalog import build_wear_corpus
from repro.qgj.campaigns import Campaign
from repro.qgj.fuzzer import FuzzConfig, FuzzerLibrary
from repro.wear.device import WearDevice

QUICK = FuzzConfig(strides={Campaign.A: 12, Campaign.B: 1, Campaign.C: 2, Campaign.D: 1})


def main() -> None:
    corpus = build_wear_corpus(seed=2018)
    watch = WearDevice("moto360")
    corpus.install(watch)

    health_apps = [
        app.package.package
        for app in corpus.apps
        if app.package.category == AppCategory.HEALTH_FITNESS
    ]
    print(f"fuzzing {len(health_apps)} Health/Fitness apps with campaigns A-D\n")

    collector = StudyCollector(corpus.packages())
    fuzzer = FuzzerLibrary(watch)
    adb = watch.adb
    adb.logcat_clear()

    for package in health_apps:
        for campaign in Campaign:
            fuzzer.fuzz_app(package, campaign, QUICK)
            collector.fold(adb.logcat_records(), package, campaign.value)
            adb.logcat_clear()

    # Per-app manifestation matrix.
    header = f"{'app':<28}" + "".join(f"{c.value:>12}" for c in Campaign)
    print(header)
    print("-" * len(header))
    for package in health_apps:
        label = corpus.app(package).package.label
        row = f"{label:<28}"
        for campaign in Campaign:
            severity = collector.app_campaign.get(
                (package, campaign.value), Manifestation.NO_EFFECT
            )
            row += f"{severity.label:>12}"
        print(row)

    reboots = collector.reboots
    print(f"\ndevice reboots during the sweep: {len(reboots)}")
    for post_mortem in reboots:
        print(
            f"  campaign {post_mortem.campaign}: {post_mortem.reason}"
        )

    # The paper's conclusion for this comparison:
    crashed = {pkg for (pkg, _), m in collector.app_campaign.items() if m >= Manifestation.CRASH}
    print(
        f"\n{len(crashed)}/{len(health_apps)} health apps showed a crash or worse -- "
        "comparable to the Not-Health category (Table III), so the Google Fit "
        "dependency does not make the category measurably less robust."
    )


if __name__ == "__main__":
    main()
