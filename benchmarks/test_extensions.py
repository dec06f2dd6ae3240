"""Bench: regenerate the extension studies (aging, lint, companion, evolution).

These go beyond the paper's tables into its discussion sections: the
longitudinal crash-cause evolution (conclusion / related work), the
software-aging analysis (Section IV-E), QGJ-Lint's static-vs-dynamic
correlation ("better tool support"), and the cross-device companion
propagation study (threats-to-validity future work).
"""

import pytest

from repro.analysis.aging import error_series, mann_kendall_trend, peak_damage
from repro.analysis.compare import evolution_table, render_evolution, verdict
from repro.analysis.logparse import parse_events, parse_lines
from repro.qgj.lint import correlate, lint_device, render_report


def test_evolution_table_regenerates(benchmark, wear, phone):
    rows = benchmark(evolution_table, wear.collector, phone.collector)
    print()
    print(render_evolution(rows))
    result = verdict(wear.collector, phone.collector)
    # The conclusion's longitudinal claims, verified against both studies:
    assert result.npe_shrank_since_2012, "NPE share must shrink vs the 2012 baseline"
    assert result.ise_grew_on_wear, "ISE share must grow on Wear"
    assert result.cnfe_phone_heavy, "ClassNotFound must be phone-heavy"


def test_lint_correlation_regenerates(benchmark, wear):
    from repro.farm import build_rig

    # Lint reads the installed packages: the study's watch as the paper
    # set it up, with the wear corpus installed and QGJ deployed.
    _, fuzzer = build_rig(wear.config)
    findings = lint_device(fuzzer.device)
    result = benchmark(correlate, findings, wear.collector)
    print()
    print(render_report(findings, limit=6))
    print(
        f"\nlint flagged {result.flagged_components} components; QGJ crashed "
        f"{result.crashed_components}; recall {result.recall:.0%}, "
        f"flag rate {result.flag_rate:.0%}"
    )
    # Static warnings must cover the dynamic findings completely (the cost
    # is the high flag rate -- why lint needs dynamic confirmation).
    assert result.recall == pytest.approx(1.0)
    assert result.flag_rate < 0.95


def test_aging_signal_regenerates(benchmark, wear):
    """The pre-reboot damage spike is recoverable from logs alone."""
    from repro.apps.builtin import AMBIENT_BINDER_PACKAGE
    from repro.apps.catalog import build_wear_corpus
    from repro.qgj.campaigns import Campaign
    from repro.qgj.fuzzer import FuzzConfig, FuzzerLibrary
    from repro.wear.device import WearDevice

    corpus = build_wear_corpus(seed=2018)
    watch = WearDevice("aging-bench")
    corpus.install(watch)
    FuzzerLibrary(watch).fuzz_app(AMBIENT_BINDER_PACKAGE, Campaign.D, FuzzConfig())
    text = watch.adb.logcat()

    def analyse():
        events = parse_events(parse_lines(text))
        samples = error_series(events)
        return peak_damage(samples), mann_kendall_trend(samples)

    peak, trend = benchmark(analyse)
    print(f"\npeak reconstructed damage before reboot: {peak:.1f}")
    assert peak > 3.0
    assert watch.boot_count == 2  # the reboot really happened
