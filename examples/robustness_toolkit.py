#!/usr/bin/env python3
"""The robustness toolkit: QGJ-Lint, crash triage, and companion study.

Three extensions straight out of the paper's discussion:

1. **QGJ-Lint** (Section IV-E, "better tool support") statically inspects
   every installed manifest and flags the patterns behind the dynamic
   findings -- then we *measure* how well the static warnings predicted the
   crashes QGJ actually provoked.

2. **Crash triage** turns a campaign's raw FATAL blocks into deduplicated
   per-defect buckets, each with a delta-debugged one-line reproducer --
   what a developer actually needs from "automated robustness testing
   tools (such as QGJ)".

3. **Companion propagation** (the threats-to-validity section: "we have
   ignored the inter-device interactions"): fuzz the wearable half of a
   two-part app while its phone-side companion consumes the DataAPI sync
   stream, and watch watch-side crashes corrupt snapshots -- and, with a
   fragile companion, crash the *phone*.

Run:  python examples/robustness_toolkit.py
"""

from repro.analysis.manifest import StudyCollector
from repro.apps.catalog import build_wear_corpus
from repro.qgj.campaigns import Campaign
from repro.qgj.fuzzer import FuzzConfig, FuzzerLibrary
from repro.qgj.lint import correlate, lint_device, render_report
from repro.wear.companion import run_companion_study
from repro.wear.device import PhoneDevice, WearDevice, pair

QUICK = FuzzConfig(strides={Campaign.A: 12, Campaign.B: 1, Campaign.C: 2, Campaign.D: 1})


def main() -> None:
    corpus = build_wear_corpus(seed=2018)
    watch = WearDevice("moto360")
    phone = PhoneDevice("nexus6")
    pair(phone, watch)
    corpus.install(watch)

    # --- 1. static lint over every installed manifest -------------------------
    findings = lint_device(watch)
    print(render_report(findings, limit=8))

    # ... then fuzz a few apps and correlate static vs dynamic.
    collector = StudyCollector(corpus.packages())
    fuzzer = FuzzerLibrary(watch)
    adb = watch.adb
    adb.logcat_clear()
    for package in ("com.runmate.wear", "com.fitband.wear", "com.motorola.omega.body"):
        for campaign in Campaign:
            fuzzer.fuzz_app(package, campaign, QUICK)
            collector.fold(adb.logcat_records(), package, campaign.value)
            adb.logcat_clear()
    corr = correlate(findings, collector)
    print(
        f"\nstatic-vs-dynamic: lint flagged {corr.flagged_components} components "
        f"({corr.flag_rate:.0%} of all); QGJ crashed {corr.crashed_components}; "
        f"lint recall over the crashed set: {corr.recall:.0%}"
    )
    print(
        "(high recall, low precision -- which is exactly why the paper wants"
        "\n lint *integrated with* dynamic tools like QGJ, not replacing them)"
    )

    # --- 2. crash triage with minimised reproducers ----------------------------
    print("\n" + "=" * 60)
    from repro.qgj.triage import triage_app

    report = triage_app(watch, "com.google.android.apps.fitness",
                        campaigns=(Campaign.B, Campaign.D))
    print(report.render())

    # --- 3. cross-device propagation ------------------------------------------
    print("\n" + "=" * 60)
    result = run_companion_study(
        watch, phone, ["com.motorola.omega.body"], robust_companions=False
    )
    print(result.render())
    print(
        "\nwith a fragile companion, malformed intents injected ONLY on the"
        "\nwatch end up crashing a process on the PHONE -- the inter-device"
        "\npropagation the paper's future work calls out."
    )


if __name__ == "__main__":
    main()
