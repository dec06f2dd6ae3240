"""Bench: regenerate Table III (behaviour distribution per campaign).

Paper reference (Table III), percentages of apps per category:

    campaign   Reboot H/NH   Crash H/NH   Hang H/NH   No Effect H/NH
    A          8% / 0%       23% / 30%    8% / 0%     62% / 70%
    B          0% / 0%       31% / 24%    0% / 0%     69% / 76%
    C          0% / 0%       31% / 33%    8% / 0%     62% / 67%
    D          0% / 3%       15% / 30%    8% / 0%     77% / 67%

Key shapes: reboots are rare and appear for Health in A and Not-Health in
D; hangs are a Health-only phenomenon absent from campaign B; both
categories sit near 70% no-effect ("no clear indication that Health/Fitness
apps ... are less robust than others").
"""

from repro.analysis.report import render_table3
from repro.analysis.tables import table3_behaviors

H = "Health/Fitness"
NH = "Not Health/Fitness"


def test_table3_regenerates(benchmark, wear):
    data = benchmark(table3_behaviors, wear.collector)
    print()
    print(render_table3(data))

    # Reboots: Health in campaign A, Not-Health in campaign D, nowhere else.
    assert data["A"]["Reboot"][H] > 0
    assert data["D"]["Reboot"][NH] > 0
    for campaign in "ABCD":
        if campaign != "A":
            assert data[campaign]["Reboot"][H] == 0
        if campaign != "D":
            assert data[campaign]["Reboot"][NH] == 0

    # Hangs: Health-only, absent from campaign B.
    for campaign in "ACD":
        assert data[campaign]["Hang"][H] > 0
        assert data[campaign]["Hang"][NH] == 0
    assert data["B"]["Hang"][H] == 0

    # Crash rates within the paper's band; no category dominates.
    for campaign in "ABCD":
        assert 0.10 <= data[campaign]["Crash"][H] <= 0.40
        assert 0.15 <= data[campaign]["Crash"][NH] <= 0.40

    # Both categories mostly unaffected, at roughly the same rate.
    for campaign in "ABCD":
        assert data[campaign]["No Effect"][H] >= 0.55
        assert data[campaign]["No Effect"][NH] >= 0.55
        gap = abs(data[campaign]["No Effect"][H] - data[campaign]["No Effect"][NH])
        assert gap < 0.20, campaign
