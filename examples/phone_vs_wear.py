#!/usr/bin/env python3
"""The paper's headline comparison: Android phone vs Android Wear crashes.

Runs the four Fuzz Intent Campaigns against a slice of both ecosystems --
``com.android.*`` apps on a Nexus 6 (Android 7.1.1) and the wearable corpus
on a Moto 360 (AW 2.0) -- and compares the crash-cause distributions.

Expected shape (Sections IV-A and IV-C): NullPointerException leads on both,
but its share on Wear has shrunk relative to older Android studies, with
IllegalArgument/IllegalStateException grown; ClassNotFoundException is far
more prominent on the phone.

Run:  python examples/phone_vs_wear.py
"""

from collections import Counter

from repro.analysis.manifest import StudyCollector
from repro.apps.catalog import build_phone_corpus, build_wear_corpus
from repro.qgj.campaigns import Campaign
from repro.qgj.fuzzer import FuzzConfig, FuzzerLibrary
from repro.wear.device import PhoneDevice, WearDevice

QUICK = FuzzConfig(strides={Campaign.A: 12, Campaign.B: 1, Campaign.C: 2, Campaign.D: 1})


def crash_distribution(device, corpus, app_limit) -> Counter:
    """Fuzz up to *app_limit* apps and count crash components per class."""
    collector = StudyCollector(corpus.packages())
    fuzzer = FuzzerLibrary(device)
    adb = device.adb
    adb.logcat_clear()
    packages = [app.package.package for app in corpus.apps][:app_limit]
    for package in packages:
        for campaign in Campaign:
            fuzzer.fuzz_app(package, campaign, QUICK)
            collector.fold(adb.logcat_records(), package, campaign.value)
            adb.logcat_clear()
    distribution: Counter = Counter()
    for record in collector.component_records():
        for cls in record.fatal_root_classes:
            distribution[cls] += 1
    return distribution


def show(title: str, distribution: Counter) -> None:
    total = sum(distribution.values())
    print(f"{title} ({total} crash components)")
    for cls, count in distribution.most_common(8):
        short = cls.rsplit(".", 1)[-1]
        print(f"  {short:<34} {count:>4}  {count / total:>6.1%}")
    print()


def main() -> None:
    print("building and fuzzing both ecosystems (a few minutes of virtual days)...\n")

    wear_corpus = build_wear_corpus(seed=2018)
    watch = WearDevice("moto360")
    wear_corpus.install(watch)
    wear_crashes = crash_distribution(watch, wear_corpus, app_limit=20)

    phone_corpus = build_phone_corpus(seed=711)
    phone = PhoneDevice("nexus6")
    phone_corpus.install(phone)
    phone_crashes = crash_distribution(phone, phone_corpus, app_limit=25)

    show("Android Wear 2.0 (Moto 360)", wear_crashes)
    show("Android 7.1.1 (Nexus 6, com.android.*)", phone_crashes)

    npe = "java.lang.NullPointerException"
    cnfe = "java.lang.ClassNotFoundException"
    ise = "java.lang.IllegalStateException"
    wear_total = sum(wear_crashes.values())
    phone_total = sum(phone_crashes.values())
    print("observations (cf. paper Sections IV-A / IV-C):")
    print(
        f"  NPE share: wear {wear_crashes[npe] / wear_total:.1%} "
        f"vs phone {phone_crashes[npe] / phone_total:.1%}"
    )
    print(
        f"  ClassNotFound: wear {wear_crashes[cnfe] / wear_total:.1%} "
        f"vs phone {phone_crashes[cnfe] / phone_total:.1%} (phone-heavy)"
    )
    print(
        f"  IllegalState: wear {wear_crashes[ise] / wear_total:.1%} "
        f"vs phone {phone_crashes[ise] / phone_total:.1%} (wear-heavy)"
    )


if __name__ == "__main__":
    main()
