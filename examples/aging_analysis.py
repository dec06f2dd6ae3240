#!/usr/bin/env python3
"""Software-aging analytics over a reboot's log (Section IV-E's direction).

The paper hypothesises the observed reboots come from *error accumulation*
and points at software-aging research for detection and recovery.  This
example drives the ambient-reboot scenario, then runs the aging analytics
over nothing but the collected logcat text:

* Mann-Kendall trend over windowed error intensity (is the device aging?);
* the accumulated-damage trajectory reconstructed from logs (the escalation
  the system server saw internally);
* a rejuvenation plan: how often a proactive restart would have prevented
  the reboot.

Run:  python examples/aging_analysis.py
"""

from repro.analysis.aging import (
    aging_report,
    damage_trajectory,
    error_series,
)
from repro.analysis.logparse import RebootEvent, parse_events, parse_lines
from repro.apps.builtin import AMBIENT_BINDER_PACKAGE
from repro.apps.catalog import build_wear_corpus
from repro.qgj.campaigns import Campaign
from repro.qgj.fuzzer import FuzzConfig, FuzzerLibrary
from repro.wear.device import WearDevice


def ascii_trajectory(times, damage, threshold: float, width: int = 58) -> str:
    """A terminal sparkline of the damage curve."""
    if damage.size == 0:
        return "(no damage)"
    step = max(1, damage.size // width)
    peak = max(damage.max(), threshold)
    lines = []
    for level in range(8, 0, -1):
        cut = peak * level / 8
        row = "".join(
            "#" if damage[i] >= cut else " " for i in range(0, damage.size, step)
        )
        marker = "<- reboot threshold" if cut <= threshold < peak * (level + 1) / 8 else ""
        lines.append(f"{cut:6.1f} |{row} {marker}")
    lines.append("       +" + "-" * width)
    return "\n".join(lines)


def main() -> None:
    corpus = build_wear_corpus(seed=2018)
    watch = WearDevice("moto360")
    corpus.install(watch)
    fuzzer = FuzzerLibrary(watch)

    print("fuzzing the watch-face app with campaign D (random extras)...\n")
    fuzzer.fuzz_app(AMBIENT_BINDER_PACKAGE, Campaign.D, FuzzConfig())
    log_text = watch.adb.logcat()

    events = parse_events(parse_lines(log_text))
    print(aging_report(events, threshold=8.0))

    samples = error_series(events)
    times, damage = damage_trajectory(samples, half_life_ms=60_000)
    reboot_time = next(
        (e.time_ms for e in events if isinstance(e, RebootEvent)), None
    )
    print("\naccumulated-damage trajectory (from logs alone):")
    print(ascii_trajectory(times, damage, threshold=8.0))
    if reboot_time is not None:
        print(f"\nthe device rebooted at t={reboot_time / 1000:.1f}s -- right as the")
        print("reconstructed damage crossed the threshold: the logs alone carry")
        print("enough signal for an aging monitor to act *before* the watchdog.")


if __name__ == "__main__":
    main()
