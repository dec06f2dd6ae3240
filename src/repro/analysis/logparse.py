"""Reading device logs back into structured failure events.

The paper's methodology is log-driven: "we collected all of the log files
(over 2GB) from the wearable using logcat, through the adb interface.
Then, we analyzed the logs to gather information, and for each component
classified the behavior of the application."  This module is that first
analysis stage: logcat records in -- as ``adb`` pulls them, or decoded from
``threadtime`` text by :func:`parse_lines`, the inverse of
:meth:`LogRecord.render` that a property test pins -- and a typed event
stream out.  Nothing here reads simulator state.

Recognised events:

* ``FATAL EXCEPTION: main`` blocks → :class:`FatalExceptionEvent` (with the
  full ``Caused by:`` chain and the app stack frames for attribution);
* app-logged (caught) exceptions → :class:`HandledExceptionEvent`;
* ``ActivityManager`` permission denials → :class:`SecurityDenialEvent`;
* ANR blocks → :class:`AnrEvent`;
* fatal native signals → :class:`NativeSignalEvent`;
* reboot markers → :class:`RebootEvent`.

The parser is *total*: arbitrary records and garbage lines are skipped,
never raised on -- a property the test suite checks with hypothesis,
because a fuzzing study's own log parser dying on weird logs would be a bad
joke.
"""

from __future__ import annotations

import dataclasses
import re
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.android.log import TAG_ACTIVITY_MANAGER, TAG_RUNTIME, Level, LogRecord

# `06-20 10:00:01.234  1234  1234 E AndroidRuntime: message`
_LINE_RE = re.compile(
    r"^(?P<month>\d{2})-(?P<day>\d{2}) "
    r"(?P<hour>\d{2}):(?P<minute>\d{2}):(?P<second>\d{2})\.(?P<ms>\d{3}) +"
    r"(?P<pid>\d+) +(?P<tid>\d+) (?P<level>[VDIWEF]) (?P<tag>[^:]+): (?P<message>.*)$"
)

#: A Java exception class name: dotted lowercase packages, CamelCase class,
#: possibly with inner-class ``$`` parts.
_EXC_CLASS = r"(?:[a-z][\w]*\.)+[A-Z][\w$]*(?:Exception|Error)"
_EXC_RE = re.compile(rf"(?P<cls>{_EXC_CLASS})(?:: (?P<msg>.*))?$")
_FRAME_RE = re.compile(r"^\t?at (?P<cls>[\w.$]+)\.(?P<method>[\w<>$-]+)\((?P<loc>[^)]*)\)$")
_ANR_RE = re.compile(r"^ANR in (?P<process>\S+) \((?P<component>[^)]+)\)$")
#: The literal each of these two patterns is anchored on: a record whose
#: message lacks it cannot match, so the parser tests it before the regex.
_NATIVE_PREFIX = "Fatal signal "
_NATIVE_RE = re.compile(
    rf"^{_NATIVE_PREFIX}(?P<number>\d+) \((?P<signal>\w+)\) in (?P<process>\S+)(?:: (?P<reason>.*))?$"
)
_REBOOT_PREFIX = "!!! SYSTEM REBOOT: "
_REBOOT_RE = re.compile(rf"^{_REBOOT_PREFIX}(?P<reason>.*) !!!$")
_CMP_RE = re.compile(r"cmp=(?P<cmp>[\w.$]+/[\w.$]+)")
_DENIAL_TARGET_RE = re.compile(r" to (?P<cmp>[\w.$]+/[\w.$]+)")

_FATAL_HEADER = "FATAL EXCEPTION: main"
_HANDLED_LEVELS = (Level.WARN, Level.ERROR)


def _parse_time_ms(match: "re.Match[str]") -> int:
    """Invert the logcat timestamp back to virtual milliseconds-since-boot."""
    day = int(match.group("day")) - 20
    hour = int(match.group("hour")) - 10 + day * 24
    return (
        hour * 3_600_000
        + int(match.group("minute")) * 60_000
        + int(match.group("second")) * 1_000
        + int(match.group("ms"))
    )


@dataclasses.dataclass
class FatalExceptionEvent:
    """One uncaught-exception crash (a FATAL EXCEPTION block)."""

    time_ms: float
    process: str
    pid: int
    exception_chain: List[str]          # outermost → innermost class names
    messages: List[str]
    frames: List[str]                   # app-frame class names, topmost first

    @property
    def outer_class(self) -> str:
        return self.exception_chain[0]

    @property
    def root_class(self) -> str:
        return self.exception_chain[-1]


@dataclasses.dataclass
class HandledExceptionEvent:
    """An exception an app caught and logged (W-level)."""

    time_ms: float
    pid: int
    tag: str
    exception_class: str
    message: Optional[str]
    frames: List[str]


@dataclasses.dataclass
class SecurityDenialEvent:
    """A system-side SecurityException (permission denial)."""

    time_ms: float
    detail: str
    component: Optional[str]            # flat component string if extractable


@dataclasses.dataclass
class AnrEvent:
    time_ms: float
    process: str
    component: str                      # short component string
    reason: str


@dataclasses.dataclass
class NativeSignalEvent:
    time_ms: float
    signal: str
    number: int
    process: str
    reason: str


@dataclasses.dataclass
class RebootEvent:
    time_ms: float
    reason: str


LogEvent = Union[
    FatalExceptionEvent,
    HandledExceptionEvent,
    SecurityDenialEvent,
    AnrEvent,
    NativeSignalEvent,
    RebootEvent,
]


def parse_lines(text: str) -> Iterator[LogRecord]:
    """Decode ``threadtime`` text to records; malformed lines are skipped.

    Inverts :meth:`LogRecord.render`, to the millisecond, for a tag without
    ``:`` or surrounding whitespace, a one-line message, non-negative pid
    and tid, and a time before the two-digit day runs out.
    """
    for raw in text.splitlines():
        match = _LINE_RE.match(raw)
        if match is None:
            continue
        yield LogRecord(
            time_ms=_parse_time_ms(match),
            pid=int(match.group("pid")),
            tid=int(match.group("tid")),
            level=Level(match.group("level")),
            tag=match.group("tag").strip(),
            message=match.group("message"),
        )


def iter_events(records: Iterable[LogRecord]) -> Iterator[LogEvent]:
    """Extract the event stream from logcat records in one scan, lazily.

    A block -- a FATAL EXCEPTION block, an ANR block, or a handled exception
    with its ``at`` frames -- is read where it starts and yielded whole, so
    a consumer holds only the events it keeps.  Event times are whole
    milliseconds, the resolution of the text grammar.
    """
    records = tuple(records)
    i, end = 0, len(records)
    while i < end:
        record = records[i]
        if record.tag == TAG_RUNTIME and record.message == _FATAL_HEADER:
            fatal, i = _fatal_block(records, i)
            if fatal is not None:
                yield fatal
            continue
        if record.tag == TAG_ACTIVITY_MANAGER:
            anr = _ANR_RE.match(record.message)
            if anr is not None:
                event, i = _anr_block(records, i, anr)
                yield event
                continue
        i += 1
        event = _single_record(record)
        if event is not None:
            if type(event) is HandledExceptionEvent:
                i = attach_handled_frames(records, i, event)
            yield event


def parse_events(records: Iterable[LogRecord]) -> List[LogEvent]:
    """The whole event stream of *records* as a list (see :func:`iter_events`)."""
    return list(iter_events(records))


# -- block scanners -----------------------------------------------------------


def _fatal_block(
    records: Sequence[LogRecord], i: int
) -> Tuple[Optional[FatalExceptionEvent], int]:
    head = records[i]
    process, pid = "", head.pid
    chain: List[str] = []
    messages: List[str] = []
    frames: List[str] = []
    j = i + 1
    while j < len(records) and records[j].tag == TAG_RUNTIME and records[j].pid == pid:
        message = records[j].message
        if message == _FATAL_HEADER:
            break
        if message.startswith("Process: "):
            process = message[len("Process: "):].split(",", 1)[0]
        elif message.startswith("Caused by: "):
            exc = _EXC_RE.match(message[len("Caused by: "):])
            if exc:
                chain.append(exc.group("cls"))
                messages.append(exc.group("msg") or "")
        else:
            frame = _FRAME_RE.match(message)
            if frame is not None:
                frames.append(frame.group("cls"))
            elif not chain:
                exc = _EXC_RE.match(message)
                if exc:
                    chain.append(exc.group("cls"))
                    messages.append(exc.group("msg") or "")
        j += 1
    if not chain:
        return None, j
    fatal = FatalExceptionEvent(
        time_ms=int(head.time_ms),
        process=process,
        pid=pid,
        exception_chain=chain,
        messages=messages,
        frames=frames,
    )
    return fatal, j


def _anr_block(records: Sequence[LogRecord], i: int, anr) -> Tuple[AnrEvent, int]:
    reason = ""
    j = i + 1
    while j < len(records) and records[j].tag == TAG_ACTIVITY_MANAGER and j - i < 4:
        if records[j].message.startswith("Reason: "):
            reason = records[j].message[len("Reason: "):]
        j += 1
    event = AnrEvent(
        time_ms=int(records[i].time_ms),
        process=anr.group("process"),
        component=anr.group("component"),
        reason=reason,
    )
    return event, j


def _single_record(record: LogRecord) -> Optional[LogEvent]:
    message = record.message
    reboot = message.startswith(_REBOOT_PREFIX) and _REBOOT_RE.match(message)
    if reboot:
        return RebootEvent(time_ms=int(record.time_ms), reason=reboot.group("reason"))
    native = message.startswith(_NATIVE_PREFIX) and _NATIVE_RE.match(message)
    if native:
        return NativeSignalEvent(
            time_ms=int(record.time_ms),
            signal=native.group("signal"),
            number=int(native.group("number")),
            process=native.group("process"),
            reason=native.group("reason") or "",
        )
    if record.tag == TAG_ACTIVITY_MANAGER and "SecurityException: Permission Denial:" in message:
        detail = message.split("Permission Denial:", 1)[1].strip()
        cmp_match = _CMP_RE.search(message) or _DENIAL_TARGET_RE.search(detail)
        return SecurityDenialEvent(
            time_ms=int(record.time_ms),
            detail=detail,
            component=expand_component(cmp_match.group("cmp")) if cmp_match else None,
        )
    if record.level in _HANDLED_LEVELS and not message.startswith("Caused by"):
        found = _EXC_RE.search(message)
        if found:
            return HandledExceptionEvent(
                time_ms=int(record.time_ms),
                pid=record.pid,
                tag=record.tag,
                exception_class=found.group("cls"),
                message=found.group("msg"),
                frames=[],
            )
    return None


def attach_handled_frames(records: Sequence[LogRecord], i: int, event: HandledExceptionEvent) -> int:
    """Attach the ``at Class.method(...)`` frames that the same pid logged
    from *i* on, right after a handled exception; returns the next index.

    The frames carry the throwing component's class, which the classifier
    needs for attribution.
    """
    while i < len(records) and records[i].pid == event.pid:
        frame = _FRAME_RE.match(records[i].message)
        if frame is None:
            break
        event.frames.append(frame.group("cls"))
        i += 1
    return i


def expand_component(short: str) -> str:
    """Expand ``pkg/.Cls`` to ``pkg/pkg.Cls``."""
    package, _, cls = short.partition("/")
    if cls.startswith("."):
        cls = package + cls
    return f"{package}/{cls}"
