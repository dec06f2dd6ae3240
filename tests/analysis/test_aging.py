"""Tests for the software-aging analytics."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.aging import (
    ErrorSample,
    aging_report,
    damage_trajectory,
    error_series,
    mann_kendall_trend,
    peak_damage,
    plan_rejuvenation,
    windowed_intensity,
)
from repro.analysis.logparse import (
    AnrEvent,
    FatalExceptionEvent,
    HandledExceptionEvent,
    NativeSignalEvent,
    RebootEvent,
)


def fatal(t):
    return FatalExceptionEvent(
        time_ms=t, process="p", pid=1, exception_chain=["x.X"], messages=[""], frames=[]
    )


def handled(t):
    return HandledExceptionEvent(
        time_ms=t, pid=1, tag="T", exception_class="x.X", message=None, frames=[]
    )


class TestErrorSeries:
    def test_weights_by_kind(self):
        events = [
            fatal(0),
            AnrEvent(time_ms=10, process="p", component="p/.C", reason=""),
            handled(20),
            NativeSignalEvent(time_ms=30, signal="SIGABRT", number=6, process="x", reason=""),
        ]
        samples = error_series(events)
        assert [s.kind for s in samples] == ["fatal", "anr", "handled", "native"]
        assert samples[3].weight > samples[1].weight > samples[0].weight > samples[2].weight

    def test_sorted_by_time(self):
        samples = error_series([fatal(100), fatal(5), fatal(50)])
        assert [s.time_ms for s in samples] == [5, 50, 100]

    def test_reboot_events_not_samples(self):
        assert error_series([RebootEvent(time_ms=0, reason="x")]) == []


class TestWindowedIntensity:
    def test_bucketing(self):
        samples = [ErrorSample(t, 1.0, "fatal") for t in (0, 100, 15_000)]
        centres, weights = windowed_intensity(samples, window_ms=10_000)
        assert len(centres) == 2
        assert weights[0] == 2.0
        assert weights[1] == 1.0

    def test_empty(self):
        centres, weights = windowed_intensity([])
        assert centres.size == 0 and weights.size == 0

    def test_bad_window(self):
        with pytest.raises(ValueError):
            windowed_intensity([ErrorSample(0, 1, "fatal")], window_ms=0)


class TestTrend:
    def test_growing_intensity_is_aging(self):
        samples = []
        t = 0.0
        for window in range(12):
            for _ in range(window + 1):  # monotone growth
                samples.append(ErrorSample(t, 1.0, "fatal"))
                t += 100
            t = (window + 1) * 10_000.0
        trend = mann_kendall_trend(samples)
        assert trend.is_aging
        assert trend.kendall_tau > 0.5
        assert trend.slope_per_minute > 0

    def test_flat_intensity_is_not_aging(self):
        samples = [
            ErrorSample(window * 10_000.0 + 10, 1.0, "fatal") for window in range(12)
        ]
        trend = mann_kendall_trend(samples)
        assert not trend.is_aging

    def test_too_few_windows_neutral(self):
        trend = mann_kendall_trend([ErrorSample(0, 1.0, "fatal")])
        assert not trend.is_aging
        assert trend.windows <= 3

    @given(
        st.lists(
            st.floats(min_value=0, max_value=1e6), min_size=0, max_size=40
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_never_raises(self, times):
        samples = sorted(
            (ErrorSample(t, 1.0, "fatal") for t in times), key=lambda s: s.time_ms
        )
        trend = mann_kendall_trend(list(samples))
        assert -1.0 <= trend.kendall_tau <= 1.0
        assert 0.0 <= trend.p_value <= 1.0


class TestDamage:
    def test_single_event_decays_by_half_life(self):
        samples = [ErrorSample(0.0, 4.0, "fatal")]
        times, damage = damage_trajectory(samples, half_life_ms=60_000, resolution_ms=60_000)
        assert damage[0] == pytest.approx(4.0)
        assert damage[1] == pytest.approx(2.0, rel=0.01)

    def test_accumulation_exceeds_single_weight(self):
        samples = [ErrorSample(i * 100.0, 2.0, "fatal") for i in range(4)]
        assert peak_damage(samples) > 7.5  # ~8 with negligible decay

    def test_empty_series(self):
        assert peak_damage([]) == 0.0


class TestRejuvenation:
    def test_no_plan_needed_below_threshold(self):
        plan = plan_rejuvenation([ErrorSample(0, 1.0, "fatal")], threshold=8.0)
        assert not plan.exceeds_threshold
        assert plan.recommended_interval_ms is None

    def test_plan_when_damage_exceeds(self):
        # 10 crashes of weight 2 in 1 second: peak ~20.
        samples = [ErrorSample(i * 100.0, 2.0, "fatal") for i in range(10)]
        plan = plan_rejuvenation(samples, threshold=8.0)
        assert plan.exceeds_threshold
        assert plan.peak_damage > 8.0
        assert plan.recommended_interval_ms is not None

    def test_recommended_interval_actually_works(self):
        samples = [ErrorSample(i * 5_000.0, 3.0, "fatal") for i in range(20)]
        plan = plan_rejuvenation(samples, threshold=8.0)
        if plan.recommended_interval_ms is not None:
            from repro.analysis.aging import _max_interval_damage

            assert (
                _max_interval_damage(samples, plan.recommended_interval_ms, 60_000.0)
                < 8.0
            )


class TestReportAndIntegration:
    def test_report_renders(self):
        events = [fatal(i * 1000.0) for i in range(20)]
        events.append(RebootEvent(time_ms=25_000, reason="x"))
        text = aging_report(events)
        assert "SOFTWARE AGING ANALYSIS" in text
        assert "reboots observed: 1" in text

    def test_real_reboot_log_shows_damage_spike(self):
        """The ambient crash-loop log should show super-threshold damage."""
        from repro.analysis.logparse import parse_events, parse_lines
        from repro.apps.builtin import AMBIENT_BINDER_PACKAGE
        from repro.apps.catalog import build_wear_corpus
        from repro.qgj.campaigns import Campaign
        from repro.qgj.fuzzer import FuzzConfig, FuzzerLibrary
        from repro.wear.device import WearDevice

        corpus = build_wear_corpus(seed=2018)
        watch = WearDevice("aging-watch")
        corpus.install(watch)
        FuzzerLibrary(watch).fuzz_app(AMBIENT_BINDER_PACKAGE, Campaign.D, FuzzConfig())
        events = parse_events(parse_lines(watch.adb.logcat()))
        samples = error_series(events)
        # Built-in crashes weigh 2.0 in the system server; the analytics use
        # 1.0 per fatal, so the spike threshold here is lower but present.
        assert peak_damage(samples) >= 3.0
        assert any(isinstance(e, RebootEvent) for e in events)
