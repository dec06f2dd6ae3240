#!/usr/bin/env python3
"""Reproduce and dissect the paper's two device reboots (Section IV-B).

Reboot #1 -- the SensorService path: a sequence of mismatched intents to a
heart-rate app silently accumulates until its handler wedges; the ANR, with
sensor listeners held, makes the system SIGABRT the native SensorService
(/system/lib/libsensorservice.so); losing the core sensor process reboots
the watch.

Reboot #2 -- the Ambient path: campaign D's random extras crash-loop a
built-in watch-face component; the loop starves Ambient-service binding on
an already-aged system and the system process takes a SIGSEGV.

Both are *emergent*: no single intent is deadly; the reboot happens at a
specific accumulated state (the paper's software-aging observation).

Run:  python examples/reboot_postmortem.py
"""

from repro.analysis.manifest import StudyCollector
from repro.analysis.report import render_reboot_postmortems
from repro.apps.builtin import AMBIENT_BINDER_PACKAGE
from repro.apps.catalog import build_wear_corpus
from repro.apps.health import HEART_RATE_PACKAGE
from repro.qgj.campaigns import Campaign
from repro.qgj.fuzzer import FuzzConfig, FuzzerLibrary
from repro.wear.device import WearDevice


def show_log_excerpt(watch, needles, context=1) -> None:
    lines = watch.adb.logcat().splitlines()
    for i, line in enumerate(lines):
        if any(needle in line for needle in needles):
            for excerpt in lines[max(0, i - context) : i + context + 1]:
                print("    " + excerpt)
            print("    ...")


def main() -> None:
    corpus = build_wear_corpus(seed=2018)
    watch = WearDevice("moto360")
    corpus.install(watch)
    collector = StudyCollector(corpus.packages())
    fuzzer = FuzzerLibrary(watch)
    adb = watch.adb
    adb.logcat_clear()

    print("=== Scenario 1: heart-rate app, campaign A (SensorService SIGABRT) ===")
    aging_before = watch.system_server.aging.score()
    fuzzer.fuzz_app(
        HEART_RATE_PACKAGE, Campaign.A, FuzzConfig(strides={Campaign.A: 12})
    )
    records = adb.logcat_records()
    show_log_excerpt(watch, ["ANR in", "Fatal signal 6", "SYSTEM REBOOT"])
    collector.fold(records, HEART_RATE_PACKAGE, "A")
    adb.logcat_clear()
    print(f"  boot count is now {watch.boot_count} (aging score was {aging_before:.1f} at start)\n")

    print("=== Scenario 2: watch-face app, campaign D (ambient starvation SIGSEGV) ===")
    fuzzer.fuzz_app(AMBIENT_BINDER_PACKAGE, Campaign.D, FuzzConfig())
    records = adb.logcat_records()
    show_log_excerpt(watch, ["unable to bind Ambient", "Fatal signal 11", "SYSTEM REBOOT"])
    collector.fold(records, AMBIENT_BINDER_PACKAGE, "D")
    print(f"  boot count is now {watch.boot_count}\n")

    print(render_reboot_postmortems(collector))

    print(
        "\nNote the paper's observation holds here: neither reboot came from a"
        "\nsingle 'deadly' intent -- scenario 1 needed ~25 silently-absorbed"
        "\nmismatches, scenario 2 needed a crash loop on an aged system."
    )


if __name__ == "__main__":
    main()
