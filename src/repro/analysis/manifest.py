"""Behaviour classification: from log events to the paper's four
manifestations.

Section III-C defines the severity lattice (decreasing order):

    **System reboot** > **Crash** > **Hang/unresponsive** > **No effect**

and the experiment classifies *per component* (Fig. 3a) and *per app per
campaign* (Table III), always taking the most severe manifestation
observed.  :class:`StudyCollector` is the stateful accumulator: the
experiment harness feeds it one logcat segment per (app, campaign) -- the
same per-app log collection rhythm the authors used -- and it folds the
parsed events into per-component records, per-app-campaign severities, and
reboot post-mortems.
"""

from __future__ import annotations

import dataclasses
import enum
from collections import Counter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.logparse import (
    AnrEvent,
    FatalExceptionEvent,
    HandledExceptionEvent,
    LogEvent,
    NativeSignalEvent,
    RebootEvent,
    SecurityDenialEvent,
    expand_component,
    iter_events,
)
from repro.analysis.rootcause import (
    app_frame,
    attribute_anr,
    guilty_class,
    reboot_culprit_classes,
    reboot_window_events,
)
from repro.android.component import ComponentKind
from repro.android.log import LogRecord
from repro.android.package_manager import PackageInfo

SECURITY_EXCEPTION = "java.lang.SecurityException"


class Manifestation(enum.IntEnum):
    """The four behaviours, ordered so ``max()`` picks the most severe."""

    NO_EFFECT = 0
    HANG = 1
    CRASH = 2
    REBOOT = 3

    @property
    def label(self) -> str:
        return _LABELS[self]


_LABELS = {
    Manifestation.NO_EFFECT: "No Effect",
    Manifestation.HANG: "Hang",
    Manifestation.CRASH: "Crash",
    Manifestation.REBOOT: "Reboot",
}


@dataclasses.dataclass
class ComponentRecord:
    """Everything observed about one component across the whole study."""

    component: str                      # flat component string
    kind: ComponentKind
    package: str
    fatal_root_classes: Counter = dataclasses.field(default_factory=Counter)
    fatal_outer_classes: Counter = dataclasses.field(default_factory=Counter)
    handled_classes: Counter = dataclasses.field(default_factory=Counter)
    anr_count: int = 0
    anr_cause_classes: Counter = dataclasses.field(default_factory=Counter)
    security_denials: int = 0
    reboot_involved: bool = False

    @property
    def crash_count(self) -> int:
        return sum(self.fatal_root_classes.values())

    def saw_evidence(self) -> bool:
        """Whether any segment left evidence here; a row without any is
        exactly the row a fresh collector starts with."""
        return bool(
            self.fatal_root_classes
            or self.fatal_outer_classes
            or self.handled_classes
            or self.anr_count
            or self.anr_cause_classes
            or self.security_denials
            or self.reboot_involved
        )

    def manifestation(self) -> Manifestation:
        if self.reboot_involved:
            return Manifestation.REBOOT
        if self.crash_count:
            return Manifestation.CRASH
        if self.anr_count:
            return Manifestation.HANG
        return Manifestation.NO_EFFECT

    def exception_classes(self, include_security: bool = False) -> Counter:
        """Distinct-class exposure for Fig. 2 (one count per class)."""
        classes: Counter = Counter()
        for cls in set(self.fatal_root_classes) | set(self.handled_classes) | set(
            self.anr_cause_classes
        ):
            classes[cls] = 1
        if include_security and self.security_denials:
            classes[SECURITY_EXCEPTION] = 1
        return classes

    def dominant_crash_class(self) -> Optional[str]:
        if not self.fatal_root_classes:
            return None
        # Deterministic: highest count, ties broken alphabetically.
        return min(
            self.fatal_root_classes, key=lambda cls: (-self.fatal_root_classes[cls], cls)
        )


@dataclasses.dataclass
class RebootPostMortem:
    """One reboot with its escalation-window evidence."""

    time_ms: float
    reason: str
    package: str
    campaign: str
    culprit_classes: List[str]
    involved_components: List[str]
    native_signal: Optional[str]


class StudyCollector:
    """Accumulates an entire study's classification state."""

    def __init__(self, packages: Sequence[PackageInfo]) -> None:
        self._components: Dict[str, ComponentRecord] = {}
        self._class_to_component: Dict[str, str] = {}
        self._package_meta: Dict[str, PackageInfo] = {}
        for package in packages:
            self._package_meta[package.package] = package
            for info in package.components:
                flat = info.name.flatten_to_string()
                self._components[flat] = ComponentRecord(
                    component=flat, kind=info.kind, package=package.package
                )
                self._class_to_component[info.name.class_name] = flat
        #: (package, campaign) → most severe manifestation observed.
        self.app_campaign: Dict[Tuple[str, str], Manifestation] = {}
        self.reboots: List[RebootPostMortem] = []
        self.segments_folded = 0

    @classmethod
    def merge(
        cls, collectors: Sequence["StudyCollector"], packages: Sequence[PackageInfo]
    ) -> "StudyCollector":
        """Combine per-shard collectors into one study-wide collector.

        The study owns the component universe: the merged collector is
        seeded from *packages* (the study corpus), so a component no shard
        saw evidence for is classified No Effect exactly once, in corpus
        order.  A shard ships only its rows with evidence
        (:meth:`evidence`); a row outside the universe is rejected.  The
        merge sums the per-component evidence counters, ORs reboot
        involvement, and concatenates reboot post-mortems in shard order.
        Two shards classifying the same ``(package, campaign)`` segment is
        a partitioning bug and is rejected, as is an empty merge.
        """
        collectors = list(collectors)
        if not collectors:
            raise ValueError("nothing to merge: no collectors")
        merged = cls(packages)
        for collector in collectors:
            for flat, record in collector._components.items():
                target = merged._components.get(flat)
                if target is None:
                    raise ValueError(
                        f"cannot merge a row for {flat}: it is outside the "
                        "study's component universe"
                    )
                target.fatal_root_classes.update(record.fatal_root_classes)
                target.fatal_outer_classes.update(record.fatal_outer_classes)
                target.handled_classes.update(record.handled_classes)
                target.anr_count += record.anr_count
                target.anr_cause_classes.update(record.anr_cause_classes)
                target.security_denials += record.security_denials
                target.reboot_involved = target.reboot_involved or record.reboot_involved
            for key, severity in collector.app_campaign.items():
                if key in merged.app_campaign:
                    raise ValueError(
                        f"overlapping shard results: segment {key} classified "
                        "by more than one shard"
                    )
                merged.app_campaign[key] = severity
            merged.reboots.extend(collector.reboots)
            merged.segments_folded += collector.segments_folded
        return merged

    def evidence(self) -> "StudyCollector":
        """This collector as a shard ships it home: only the rows that saw
        evidence, and no package metadata, which :meth:`merge` takes from
        the study corpus.  Folding needs the full universe, because a frame
        can name a component of another installed package."""
        shipped = StudyCollector(())
        shipped._components = {
            flat: record for flat, record in self._components.items() if record.saw_evidence()
        }
        shipped.app_campaign = self.app_campaign
        shipped.reboots = self.reboots
        shipped.segments_folded = self.segments_folded
        return shipped

    # -- metadata ------------------------------------------------------------------
    def package_meta(self, package: str) -> Optional[PackageInfo]:
        return self._package_meta.get(package)

    def component_records(self) -> List[ComponentRecord]:
        return list(self._components.values())

    def record_for(self, component_flat: str) -> Optional[ComponentRecord]:
        return self._components.get(component_flat)

    # -- folding -----------------------------------------------------------------
    def fold(self, records: Iterable[LogRecord], package: str, campaign: str) -> None:
        """Fold one (app, campaign) segment's log records into the study state.

        The events stream in.  A permission denial is counted as it is
        parsed and dropped; the other events are kept, because reboot
        windows and ANR attribution read back over them.
        """
        events: List[LogEvent] = []
        for event in iter_events(records):
            if type(event) is SecurityDenialEvent:
                if event.component is not None:
                    record = self._components.get(event.component)
                    if record is not None:
                        record.security_denials += 1
            else:
                events.append(event)
        self.segments_folded += 1
        severity = self.app_campaign.get((package, campaign), Manifestation.NO_EFFECT)
        # attribute_anr reads only handled exceptions: collect them once,
        # not once per ANR.
        handled = [event for event in events if isinstance(event, HandledExceptionEvent)]

        for event in events:
            if isinstance(event, FatalExceptionEvent):
                record = self._attribute_frames(event.frames, fallback_package=package)
                if record is not None:
                    record.fatal_root_classes[guilty_class(event)] += 1
                    record.fatal_outer_classes[event.outer_class] += 1
                severity = max(severity, Manifestation.CRASH)
            elif isinstance(event, AnrEvent):
                record = self._components.get(expand_component(event.component))
                if record is not None:
                    record.anr_count += 1
                    cause = attribute_anr(event, handled)
                    if cause is not None:
                        record.anr_cause_classes[cause] += 1
                severity = max(severity, Manifestation.HANG)
            elif isinstance(event, HandledExceptionEvent):
                record = self._attribute_frames(event.frames, fallback_package=None)
                if record is not None and event.exception_class != SECURITY_EXCEPTION:
                    record.handled_classes[event.exception_class] += 1
            elif isinstance(event, RebootEvent):
                severity = max(severity, Manifestation.REBOOT)
                self._fold_reboot(event, events, package, campaign)
        self.app_campaign[(package, campaign)] = severity

    def _fold_reboot(
        self,
        reboot: RebootEvent,
        events: Sequence[LogEvent],
        package: str,
        campaign: str,
    ) -> None:
        window = reboot_window_events(reboot, events)
        classes = reboot_culprit_classes(window)
        involved: List[str] = []
        native: Optional[str] = None
        for event in window:
            record: Optional[ComponentRecord] = None
            if isinstance(event, FatalExceptionEvent):
                record = self._attribute_frames(event.frames, fallback_package=package)
            elif isinstance(event, HandledExceptionEvent):
                record = self._attribute_frames(event.frames, fallback_package=None)
            elif isinstance(event, AnrEvent):
                record = self._components.get(expand_component(event.component))
            elif isinstance(event, NativeSignalEvent):
                native = event.signal
            if record is not None:
                record.reboot_involved = True
                if record.component not in involved:
                    involved.append(record.component)
        self.reboots.append(
            RebootPostMortem(
                time_ms=reboot.time_ms,
                reason=reboot.reason,
                package=package,
                campaign=campaign,
                culprit_classes=classes,
                involved_components=involved,
                native_signal=native,
            )
        )

    def _attribute_frames(
        self, frames: Sequence[str], fallback_package: Optional[str]
    ) -> Optional[ComponentRecord]:
        cls = app_frame(frames)
        if cls is not None:
            flat = self._class_to_component.get(cls)
            if flat is not None:
                return self._components.get(flat)
        return None

    # -- summaries -----------------------------------------------------------------
    def manifestation_counts(self) -> Counter:
        """Fig. 3a: components per manifestation."""
        counts: Counter = Counter()
        for record in self._components.values():
            counts[record.manifestation()] += 1
        return counts

    def crashing_packages(self) -> Dict[str, int]:
        """package → total crash count, for apps that crashed at all."""
        crashes: Counter = Counter()
        for record in self._components.values():
            if record.crash_count:
                crashes[record.package] += record.crash_count
        return dict(crashes)

    def exception_distribution(
        self, include_security: bool = False
    ) -> Dict[ComponentKind, Counter]:
        """Fig. 2: per-kind distinct-class counts (one per component)."""
        per_kind: Dict[ComponentKind, Counter] = {
            ComponentKind.ACTIVITY: Counter(),
            ComponentKind.SERVICE: Counter(),
        }
        for record in self._components.values():
            if record.kind not in per_kind:
                continue
            per_kind[record.kind].update(record.exception_classes(include_security))
        return per_kind

    def security_share(self) -> float:
        """Fraction of all distinct (component, class) exceptions that are
        SecurityException -- the paper's 81.3% headline."""
        security = 0
        total = 0
        for record in self._components.values():
            classes = record.exception_classes(include_security=True)
            total += sum(classes.values())
            security += classes.get(SECURITY_EXCEPTION, 0)
        if total == 0:
            return 0.0
        return security / total

