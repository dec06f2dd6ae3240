"""Bench: regenerate Table V (QGJ-UI exceptions and crashes).

Paper reference (Table V), 41,405 events per mode on the Watch emulator:

    semi-valid:  1496 exceptions (3.6%),  22 crashes (0.05%)
    random:       615 exceptions (1.5%),   0 crashes (0%)

Shape: UI fuzzing is orders of magnitude more benign than intent fuzzing;
semi-valid mutation penetrates deeper than random (whose absurd coordinates
land outside every window and whose garbage is rejected by the adb tools);
random injections never crash anything; no system crash either way.
"""

from repro.analysis.report import render_table5
from repro.analysis.tables import table5_ui


def test_table5_regenerates(benchmark, ui):
    rows = benchmark(table5_ui, ui.results)
    print()
    print(render_table5(rows))

    semi = next(row for row in rows if row["experiment"] == "semi-valid")
    rand = next(row for row in rows if row["experiment"] == "random")

    # Identical event volumes per mode, as in the paper.
    assert semi["injected_events"] == rand["injected_events"]

    # Semi-valid raises clearly more exceptions than random.
    assert semi["exceptions_raised"] > rand["exceptions_raised"]
    assert 0.015 <= semi["exception_rate"] <= 0.07      # paper: 3.6%
    assert 0.002 <= rand["exception_rate"] <= 0.03      # paper: 1.5%

    # Crashes: a trace amount for semi-valid, none for random.
    assert rand["crashes"] == 0
    assert semi["crash_rate"] <= 0.002                   # paper: 0.05%

    # "Reassuringly, we did not observe any system crash during our UI
    # injections."
    assert ui.boot_count == 1
