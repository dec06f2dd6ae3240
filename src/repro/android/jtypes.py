"""Java-style throwable types for the simulated Android runtime.

The Android runtime that this package simulates is a Java world: failures
surface as ``java.lang.*`` / ``android.*`` exception objects that carry a
message, an optional *cause* chain, and a synthetic stack trace.  The fuzz
study reproduced here ("How Reliable Is My Wearable", DSN 2018) reasons
entirely in terms of these exception classes -- which class was raised, where
it was raised, what caused what -- so we model them faithfully instead of
reusing Python's built-in exceptions.

Every throwable knows how to render itself exactly the way ``logcat`` prints
an uncaught exception::

    java.lang.NullPointerException: Attempt to invoke virtual method ...
        at com.example.fit.MainActivity.onCreate(MainActivity.java:42)
        at android.app.ActivityThread.performLaunchActivity(ActivityThread.java:2817)
    Caused by: java.lang.IllegalStateException: ...
        at ...

The analysis pipeline (:mod:`repro.analysis.logparse`) reads that exact
grammar back out of the collected log records or their text, which keeps the
reproduction honest: results flow through the log, not simulator state.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Iterator, List, Optional, Sequence


@dataclasses.dataclass(frozen=True)
class StackFrame:
    """One ``at`` line of a Java stack trace."""

    class_name: str
    method: str
    file: str
    line: int

    def __str__(self) -> str:
        return f"at {self.class_name}.{self.method}({self.file}:{self.line})"


def frame(class_name: str, method: str, line: int, file: Optional[str] = None) -> StackFrame:
    """Build a :class:`StackFrame`, deriving the file name from the class.

    ``frame("com.example.app.MainActivity", "onCreate", 42)`` yields the
    frame ``at com.example.app.MainActivity.onCreate(MainActivity.java:42)``.
    """
    if file is None:
        simple = class_name.rsplit(".", 1)[-1]
        # Inner classes (Foo$Bar) live in the outer class's file.
        simple = simple.split("$", 1)[0]
        file = simple + ".java"
    return StackFrame(class_name=class_name, method=method, file=file, line=line)


# Framework frames appended below app frames so traces look like real ART
# dumps.  The analysis never depends on these, but realistic traces exercise
# the parser the way real logs would.
_FRAMEWORK_ACTIVITY_FRAMES: Sequence[StackFrame] = (
    frame("android.app.ActivityThread", "performLaunchActivity", 2817),
    frame("android.app.ActivityThread", "handleLaunchActivity", 2892),
    frame("android.app.ActivityThread", "-wrap11", 1),
    frame("android.app.ActivityThread$H", "handleMessage", 1593),
    frame("android.os.Handler", "dispatchMessage", 105),
    frame("android.os.Looper", "loop", 164),
    frame("android.app.ActivityThread", "main", 6541),
)

_FRAMEWORK_SERVICE_FRAMES: Sequence[StackFrame] = (
    frame("android.app.ActivityThread", "handleServiceArgs", 3416),
    frame("android.app.ActivityThread", "-wrap21", 1),
    frame("android.app.ActivityThread$H", "handleMessage", 1691),
    frame("android.os.Handler", "dispatchMessage", 105),
    frame("android.os.Looper", "loop", 164),
    frame("android.app.ActivityThread", "main", 6541),
)


class Throwable(Exception):
    """Root of the simulated Java throwable hierarchy.

    Parameters
    ----------
    message:
        The detail message (may be ``None``, as in Java).
    cause:
        Optional nested :class:`Throwable`, rendered as a ``Caused by:``
        section.
    frames:
        Application stack frames (topmost first).  Framework frames are
        appended automatically when the throwable is raised on a component's
        main thread; see :meth:`with_frames`.
    """

    #: Fully qualified Java class name; subclasses override.
    JAVA_NAME = "java.lang.Throwable"

    def __init__(
        self,
        message: Optional[str] = None,
        cause: Optional["Throwable"] = None,
        frames: Optional[Iterable[StackFrame]] = None,
    ) -> None:
        super().__init__(message)
        self.message = message
        self.cause = cause
        self.frames: List[StackFrame] = list(frames or [])

    # -- construction helpers -------------------------------------------------
    def with_frames(self, frames: Iterable[StackFrame], component_kind: str = "activity") -> "Throwable":
        """Return ``self`` with *frames* installed plus framework padding."""
        padding = (
            _FRAMEWORK_SERVICE_FRAMES if component_kind == "service" else _FRAMEWORK_ACTIVITY_FRAMES
        )
        self.frames = list(frames) + list(padding)
        return self

    # -- Java-style rendering --------------------------------------------------
    def java_str(self) -> str:
        """``ClassName: message`` (or bare class name if no message)."""
        if self.message is None:
            return self.JAVA_NAME
        return f"{self.JAVA_NAME}: {self.message}"

    def stack_trace_lines(self) -> List[str]:
        """Render the full trace, including the ``Caused by:`` chain."""
        lines = [self.java_str()]
        lines.extend(f"\t{f}" for f in self.frames)
        seen = 0
        cause = self.cause
        while cause is not None and seen < 8:  # defensive bound against cycles
            lines.append(f"Caused by: {cause.java_str()}")
            lines.extend(f"\t{f}" for f in cause.frames)
            cause = cause.cause
            seen += 1
        return lines

    def cause_chain(self) -> Iterator["Throwable"]:
        """Yield ``self`` then each cause, outermost first."""
        node: Optional[Throwable] = self
        hops = 0
        while node is not None and hops < 16:
            yield node
            node = node.cause
            hops += 1

    def root_cause(self) -> "Throwable":
        """The innermost throwable of the cause chain."""
        node = self
        for node in self.cause_chain():
            pass
        return node

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.java_str()!r}>"


# --------------------------------------------------------------------------
# java.lang hierarchy
# --------------------------------------------------------------------------

class JavaException(Throwable):
    JAVA_NAME = "java.lang.Exception"


class RuntimeException(JavaException):
    JAVA_NAME = "java.lang.RuntimeException"


class NullPointerException(RuntimeException):
    JAVA_NAME = "java.lang.NullPointerException"


class IllegalArgumentException(RuntimeException):
    JAVA_NAME = "java.lang.IllegalArgumentException"


class IllegalStateException(RuntimeException):
    JAVA_NAME = "java.lang.IllegalStateException"


class SecurityException(RuntimeException):
    JAVA_NAME = "java.lang.SecurityException"


class ArithmeticException(RuntimeException):
    JAVA_NAME = "java.lang.ArithmeticException"


class UnsupportedOperationException(RuntimeException):
    JAVA_NAME = "java.lang.UnsupportedOperationException"


class ClassCastException(RuntimeException):
    JAVA_NAME = "java.lang.ClassCastException"


class IndexOutOfBoundsException(RuntimeException):
    JAVA_NAME = "java.lang.IndexOutOfBoundsException"


class NumberFormatException(IllegalArgumentException):
    JAVA_NAME = "java.lang.NumberFormatException"


class ClassNotFoundException(JavaException):
    JAVA_NAME = "java.lang.ClassNotFoundException"


# --------------------------------------------------------------------------
# android.* hierarchy
# --------------------------------------------------------------------------

class ActivityNotFoundException(RuntimeException):
    JAVA_NAME = "android.content.ActivityNotFoundException"


class RemoteException(JavaException):
    JAVA_NAME = "android.os.RemoteException"


class DeadObjectException(RemoteException):
    JAVA_NAME = "android.os.DeadObjectException"


class BadParcelableException(RuntimeException):
    JAVA_NAME = "android.os.BadParcelableException"


class TransactionTooLargeException(RemoteException):
    JAVA_NAME = "android.os.TransactionTooLargeException"


class WindowBadTokenException(RuntimeException):
    JAVA_NAME = "android.view.WindowManager$BadTokenException"


class SQLiteException(RuntimeException):
    JAVA_NAME = "android.database.sqlite.SQLiteException"


class NetworkOnMainThreadException(RuntimeException):
    JAVA_NAME = "android.os.NetworkOnMainThreadException"


class OutOfMemoryError(Throwable):
    JAVA_NAME = "java.lang.OutOfMemoryError"


class StackOverflowError(Throwable):
    JAVA_NAME = "java.lang.StackOverflowError"


class NoSuchMethodError(Throwable):
    JAVA_NAME = "java.lang.NoSuchMethodError"


#: Registry of every concrete throwable class keyed by its Java name, used by
#: the log parser and by the app behaviour models.
THROWABLE_CLASSES = {
    cls.JAVA_NAME: cls
    for cls in (
        Throwable,
        JavaException,
        RuntimeException,
        NullPointerException,
        IllegalArgumentException,
        IllegalStateException,
        SecurityException,
        ArithmeticException,
        UnsupportedOperationException,
        ClassCastException,
        IndexOutOfBoundsException,
        NumberFormatException,
        ClassNotFoundException,
        ActivityNotFoundException,
        RemoteException,
        DeadObjectException,
        BadParcelableException,
        TransactionTooLargeException,
        WindowBadTokenException,
        SQLiteException,
        NetworkOnMainThreadException,
        OutOfMemoryError,
        StackOverflowError,
        NoSuchMethodError,
    )
}


def throwable_from_name(java_name: str, message: Optional[str] = None) -> Throwable:
    """Instantiate the throwable class registered under *java_name*.

    Unknown names produce a plain :class:`Throwable` whose ``JAVA_NAME`` is
    patched to the requested name, so the parser can round-trip exception
    classes it has never seen (vendor-specific classes appear in real logs).
    """
    cls = THROWABLE_CLASSES.get(java_name)
    if cls is not None:
        return cls(message)
    unknown = Throwable(message)
    unknown.JAVA_NAME = java_name  # type: ignore[misc]
    return unknown


# --------------------------------------------------------------------------
# Native-level failures (not Java throwables, but part of the failure model)
# --------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class NativeSignal:
    """A fatal signal delivered to a (possibly native) process.

    The paper's two device reboots are rooted in native failures: a SIGABRT
    that killed ``/system/lib/libsensorservice.so`` and a SIGSEGV in a system
    process.  These are not Java exceptions, so they get their own type.
    """

    signal: str          # e.g. "SIGABRT", "SIGSEGV"
    number: int          # e.g. 6, 11
    process: str         # process or library name
    reason: str = ""

    def logcat_line(self) -> str:
        body = f"Fatal signal {self.number} ({self.signal}) in {self.process}"
        if self.reason:
            body += f": {self.reason}"
        return body


SIGABRT = "SIGABRT"
SIGSEGV = "SIGSEGV"


def sigabrt(process: str, reason: str = "") -> NativeSignal:
    return NativeSignal(signal=SIGABRT, number=6, process=process, reason=reason)


def sigsegv(process: str, reason: str = "") -> NativeSignal:
    return NativeSignal(signal=SIGSEGV, number=11, process=process, reason=reason)
