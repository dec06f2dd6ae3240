"""Paper-scale chaos: Google Fit's shard survives its adb drop streak.

Under ``FaultPlan.chaos(seed=7)`` at paper scale, adb drops fall due during
Google Fit's long segments and pile up; each log-pull attempt consumes one,
and one pull meets 11 in a row.  The log pull's retry budget must outlast
that streak, or the shard (and the study with it) dies at 9,035 virtual s.
The shard runs alone here, as the study would run it, in about 5 s.
"""

from __future__ import annotations

from repro.experiments.config import PAPER
from repro.farm import plan_shards
from repro.farm import shard as shard_module
from repro.farm.shard import LOG_PULL_RETRY, run_shard
from repro.faults import FaultPlan
from repro.qgj.campaigns import Campaign

GOOGLE_FIT = "com.google.android.apps.fitness"


class _CountingPullRetry:
    """``LOG_PULL_RETRY`` itself, recording each adb call's retry count."""

    def __init__(self) -> None:
        self.retries = []

    def run(self, fn, clock, key=(), telemetry_handle=None):
        seen = []
        try:
            return LOG_PULL_RETRY.run(
                fn,
                clock,
                key=key,
                telemetry_handle=telemetry_handle,
                on_retry=lambda attempt, delay, exc: seen.append(type(exc).__name__),
            )
        finally:
            self.retries.append(seen)


def test_google_fit_paper_shard_finishes_under_chaos(monkeypatch):
    (spec,) = plan_shards(
        "wear", PAPER, [GOOGLE_FIT], tuple(Campaign), base_plan=FaultPlan.chaos(seed=7)
    )
    counting = _CountingPullRetry()
    monkeypatch.setattr(shard_module, "LOG_PULL_RETRY", counting)

    result = run_shard(spec)

    assert result.summary.total_sent == 140_182
    longest = max(len(seen) for seen in counting.retries)
    assert longest == 11, counting.retries
    assert {name for seen in counting.retries for name in seen} == {"AdbSessionDropped"}
    assert sum(len(seen) for seen in counting.retries) == 14
    assert longest < LOG_PULL_RETRY.max_attempts
