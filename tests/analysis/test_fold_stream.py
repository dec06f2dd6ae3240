"""The streaming fold against a fold over the whole parsed event list.

``StudyCollector.fold`` reads its segment through ``iter_events``: it
counts each permission denial as it is parsed and keeps only the other
events, which the reboot windows and ANR attribution read back.  The
property below checks it against the fold as it ran over
``parse_events(records)``, kept here as the reference, on segments that mix
every event kind, including events logged after a reboot marker within its
millisecond.
"""

import tracemalloc

from hypothesis import given, settings, strategies as st

from repro.analysis.logparse import (
    AnrEvent,
    FatalExceptionEvent,
    HandledExceptionEvent,
    RebootEvent,
    SecurityDenialEvent,
    expand_component,
    parse_events,
)
from repro.analysis.manifest import SECURITY_EXCEPTION, Manifestation, StudyCollector
from repro.analysis.rootcause import attribute_anr, guilty_class
from repro.android.clock import Clock
from repro.android.component import ComponentInfo, ComponentKind
from repro.android.intent import ComponentName
from repro.android.jtypes import (
    IllegalArgumentException,
    NullPointerException,
    RuntimeException,
    SecurityException,
    frame,
    sigabrt,
)
from repro.android.log import TAG_ACTIVITY_MANAGER, Level, LogRecord, Logcat
from repro.android.package_manager import AppCategory, AppOrigin, PackageInfo
from tests.analysis.test_logparse import single_records


def _package(name, *components):
    return PackageInfo(
        package=name,
        label=name,
        category=AppCategory.HEALTH_FITNESS,
        origin=AppOrigin.THIRD_PARTY,
        components=[
            ComponentInfo(name=ComponentName(name, f"{name}.{cls}"), kind=kind)
            for cls, kind in components
        ],
    )


#: The fuzzed app, and a second installed app its stacks can name.
UNIVERSE = (
    _package("com.a", ("Main", ComponentKind.ACTIVITY), ("Svc", ComponentKind.SERVICE)),
    _package("com.b", ("Other", ComponentKind.ACTIVITY)),
)
#: Frame classes: the universe's, a framework class and an uninstalled app's.
_FRAME_CLASSES = ("com.a.Main", "com.a.Svc", "com.b.Other", "android.app.Activity", "com.z.Gone")
#: Short component strings, as ANR blocks and denials print them.
_SHORT_COMPONENTS = ("com.a/.Main", "com.a/.Svc", "com.b/.Other", "com.z/.Gone")
_EXCEPTIONS = (NullPointerException, IllegalArgumentException, SecurityException)

_pids = st.integers(min_value=1, max_value=4)

denials = st.tuples(
    st.just("denial"),
    _pids,
    st.one_of(
        st.sampled_from(_SHORT_COMPONENTS).map(lambda c: f"starting Intent {{ act=x cmp={c} }} from com.qgj"),
        st.sampled_from(_SHORT_COMPONENTS).map(lambda c: f"broadcasting X from com.qgj to {c}"),
        st.just("reading a provider without a component"),
    ),
)
fatals = st.tuples(
    st.just("fatal"),
    _pids,
    st.sampled_from(_FRAME_CLASSES),
    st.sampled_from(_EXCEPTIONS),
    st.booleans(),  # wrapped in a RuntimeException cause chain
)
anrs = st.tuples(st.just("anr"), _pids, st.sampled_from(_SHORT_COMPONENTS))
handled = st.tuples(
    st.just("handled"), _pids, st.sampled_from(_FRAME_CLASSES), st.sampled_from(_EXCEPTIONS)
)
natives = st.tuples(st.just("native"), _pids)
raw = st.tuples(st.just("record"), single_records)
advances = st.tuples(st.just("advance"), st.sampled_from([0, 1, 500, 1_999, 2_001, 15_000, 16_000]))
_events = st.one_of(denials, fatals, anrs, handled, natives, raw)
#: A reboot marker and the events logged after it within its millisecond.
reboots = st.tuples(st.just("reboot"), st.lists(_events, max_size=4))
steps = st.one_of(_events, advances, reboots)
segments = st.lists(
    st.tuples(
        st.sampled_from([("com.a", "A"), ("com.a", "D"), ("com.b", "A")]),
        st.lists(steps, max_size=30),
    ),
    min_size=1,
    max_size=3,
)


def _write(logcat, clock, step):
    kind, *args = step
    if kind == "denial":
        pid, detail = args
        logcat.security_denial(pid, detail)
    elif kind == "fatal":
        pid, cls, exc_type, wrapped = args
        exc = exc_type("boom").with_frames([frame(cls, "onCreate", 1)])
        if wrapped:
            exc = RuntimeException("Unable to start activity", cause=exc)
        logcat.fatal_exception("com.a", pid, exc)
    elif kind == "anr":
        pid, component = args
        logcat.anr(component.split("/")[0], pid, component, "blocked")
    elif kind == "handled":
        pid, cls, exc_type = args
        exc = exc_type("rejected", frames=[frame(cls, "validate", 1)])
        logcat.handled_exception("AppTag", pid, exc, context="rejected intent")
    elif kind == "native":
        (pid,) = args
        logcat.native_crash(sigabrt("/system/lib/libsensorservice.so", "wedged"), pid)
    elif kind == "record":
        (record,) = args
        logcat.write(record.level, record.tag, record.message, pid=record.pid)
    elif kind == "advance":
        (ms,) = args
        clock.sleep(ms)
    elif kind == "reboot":
        (after,) = args
        logcat.reboot_marker("aging collapse")
        for event in after:
            _write(logcat, clock, event)


def _segment_records(steps):
    clock = Clock()
    logcat = Logcat(clock)
    for step in steps:
        _write(logcat, clock, step)
    return tuple(logcat.records())


def _reference_fold(collector, records, package, campaign):
    """``StudyCollector.fold`` as it ran over the whole parsed event list,
    permission denials included."""
    events = parse_events(records)
    collector.segments_folded += 1
    severity = collector.app_campaign.get((package, campaign), Manifestation.NO_EFFECT)
    handled_events = [event for event in events if isinstance(event, HandledExceptionEvent)]
    for event in events:
        if isinstance(event, FatalExceptionEvent):
            record = collector._attribute_frames(event.frames, fallback_package=package)
            if record is not None:
                record.fatal_root_classes[guilty_class(event)] += 1
                record.fatal_outer_classes[event.outer_class] += 1
            severity = max(severity, Manifestation.CRASH)
        elif isinstance(event, AnrEvent):
            record = collector.record_for(expand_component(event.component))
            if record is not None:
                record.anr_count += 1
                cause = attribute_anr(event, handled_events)
                if cause is not None:
                    record.anr_cause_classes[cause] += 1
            severity = max(severity, Manifestation.HANG)
        elif isinstance(event, HandledExceptionEvent):
            record = collector._attribute_frames(event.frames, fallback_package=None)
            if record is not None and event.exception_class != SECURITY_EXCEPTION:
                record.handled_classes[event.exception_class] += 1
        elif isinstance(event, SecurityDenialEvent):
            if event.component is not None:
                record = collector.record_for(event.component)
                if record is not None:
                    record.security_denials += 1
        elif isinstance(event, RebootEvent):
            severity = max(severity, Manifestation.REBOOT)
            collector._fold_reboot(event, events, package, campaign)
    collector.app_campaign[(package, campaign)] = severity


@settings(max_examples=150, deadline=None)
@given(segments)
def test_streaming_fold_matches_the_whole_list_fold(study):
    streamed, reference = StudyCollector(UNIVERSE), StudyCollector(UNIVERSE)
    for (package, campaign), steps in study:
        records = _segment_records(steps)
        streamed.fold(records, package, campaign)
        _reference_fold(reference, records, package, campaign)
    assert streamed.component_records() == reference.component_records()
    assert streamed.app_campaign == reference.app_campaign
    assert streamed.reboots == reference.reboots
    assert streamed.segments_folded == reference.segments_folded


def test_a_denial_segment_folds_without_holding_its_events():
    """A segment's permission denials are counted as they stream by: the
    fold's peak allocation does not grow with them."""
    message = "java.lang.SecurityException: Permission Denial: starting Intent { act=x cmp=com.a/.Main } from com.qgj"
    records = tuple(
        LogRecord(float(index), 1, 1, Level.WARN, TAG_ACTIVITY_MANAGER, message) for index in range(20_000)
    )
    collector = StudyCollector(UNIVERSE)
    tracemalloc.start()
    try:
        collector.fold(records, "com.a", "A")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert collector.record_for("com.a/com.a.Main").security_denials == 20_000
    assert peak < 1_000_000, f"fold peaked at {peak:,} bytes"
