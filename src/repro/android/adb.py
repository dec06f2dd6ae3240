"""The ``adb`` endpoint: logcat access and shell tools (``am``/``pm``/``input``).

Section IV-D of the paper rests on the *specific* input-validation behaviour
of these developer tools:

* ``pm`` rejects a garbage permission string outright ("no such permission
  exists") -- strong validation at the tool;
* ``am`` happily forwards an arbitrary action string such as
  ``S0me.r@ndom.$trinG`` to the component and "relies on the correctness of
  input validation at the component";
* ``input`` parses its numeric arguments strictly -- a random ASCII string
  where a coordinate belongs raises ``NumberFormatException`` *inside the
  tool* (counted as an exception in Table V, but handled, so no crash), and
  a parseable-but-absurd coordinate like ``input tap -8803.85 4668.17`` is
  injected and simply lands outside every window;
* ``am`` invoked with a component but neither action nor category fills in
  ``act=android.intent.action.MAIN cat=android.intent.category.LAUNCHER``.

All four behaviours are implemented here, because QGJ-UI's measured
robustness (Table V) is partly *their* robustness.
"""

from __future__ import annotations

import dataclasses
import shlex
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.android.intent import (
    CATEGORY_LAUNCHER,
    ComponentName,
    Intent,
)
from repro.android.jtypes import (
    ActivityNotFoundException,
    NumberFormatException,
    SecurityException,
    Throwable,
)
from repro.android.log import LogRecord

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.android.device import Device

ACTION_MAIN = "android.intent.action.MAIN"

#: The package adb shell commands act as (an unprivileged shell identity).
SHELL_PACKAGE = "com.android.shell"


@dataclasses.dataclass
class ShellResult:
    """Outcome of one ``adb shell`` command."""

    exit_code: int
    output: str
    #: Exception raised *within the tool* and handled there (NumberFormat
    #: errors in ``input``, SecurityExceptions surfaced by ``am``, …).
    tool_exception: Optional[Throwable] = None
    #: True when the command resulted in an app-process crash.
    caused_crash: bool = False
    #: True when the command's payload reached an application component.
    reached_app: bool = False

    @property
    def ok(self) -> bool:
        return self.exit_code == 0


class Adb:
    """adb connected to one :class:`~repro.android.device.Device`."""

    def __init__(self, device: "Device") -> None:
        self._device = device

    def _session(self) -> None:
        """Chaos-plane entry point shared by every adb operation.

        A due session-drop fault raises :class:`AdbSessionDropped` here,
        before the command reaches the device -- the caller (QGJ's retry
        layer) reconnects and retries, exactly like the paper's operators
        nursing a flaky ``adb`` link.
        """
        plane = self._device.runtime.faults
        if plane.armed:
            plane.on_adb(self._device)

    # -- logcat -----------------------------------------------------------------
    def logcat_records(self) -> Tuple[LogRecord, ...]:
        """``adb logcat -d``: pull the full buffer as records."""
        self._session()
        return tuple(self._device.logcat.records())

    def logcat(self) -> str:
        """``adb logcat -d`` as ``threadtime`` text: one pull, rendered."""
        return "\n".join(record.render() for record in self.logcat_records())

    def logcat_clear(self) -> None:
        """``adb logcat -c``."""
        self._session()
        self._device.logcat.clear()

    # -- shell ------------------------------------------------------------------
    def shell(self, command: str) -> ShellResult:
        """Run one shell command line."""
        self._session()
        try:
            argv = shlex.split(command)
        except ValueError as exc:
            return ShellResult(exit_code=2, output=f"sh: syntax error: {exc}")
        if not argv:
            return ShellResult(exit_code=0, output="")
        tool, args = argv[0], argv[1:]
        if tool == "input":
            return self._input(args)
        if tool == "am":
            return self._am(args)
        if tool == "pm":
            return self._pm(args)
        if tool == "dumpsys":
            return self._dumpsys(args)
        if tool == "monkey":
            return ShellResult(
                exit_code=2,
                output="monkey: use repro.qgj.monkey.Monkey to drive event generation",
            )
        return ShellResult(exit_code=127, output=f"sh: {tool}: not found")

    # -- input ------------------------------------------------------------------
    def _input(self, args: List[str]) -> ShellResult:
        usage = (
            "Usage: input [<source>] <command> [<arg>...]\n"
            "  input text <string>\n  input keyevent <key code>\n"
            "  input tap <x> <y>\n  input swipe <x1> <y1> <x2> <y2>\n"
            "  input trackball roll <dx> <dy>"
        )
        if not args:
            return ShellResult(exit_code=1, output=usage)
        cmd, rest = args[0], args[1:]
        if cmd == "text":
            if not rest:
                return ShellResult(exit_code=1, output=usage)
            result = self._deliver_ui("text", text=" ".join(rest))
            return result
        if cmd == "keyevent":
            if len(rest) != 1:
                return ShellResult(exit_code=1, output=usage)
            parsed, error = self._parse_int(rest[0])
            if error is not None:
                return ShellResult(
                    exit_code=1,
                    output=f"Error: {error.java_str()}\n{usage}",
                    tool_exception=error,
                )
            if not 0 <= parsed <= 288:
                # KeyEvent codes outside the table are dropped at the tool.
                return ShellResult(exit_code=1, output=f"Error: Unknown keycode {parsed}")
            return self._deliver_ui("keyevent", code=parsed)
        if cmd == "tap":
            if len(rest) != 2:
                return ShellResult(exit_code=1, output=usage)
            coords, error = self._parse_floats(rest)
            if error is not None:
                return ShellResult(
                    exit_code=1,
                    output=f"Error: {error.java_str()}\n{usage}",
                    tool_exception=error,
                )
            x, y = coords
            if not self._on_screen(x, y):
                # Injected, but no window receives it.
                return ShellResult(exit_code=0, output="", reached_app=False)
            return self._deliver_ui("tap", x=x, y=y)
        if cmd == "swipe":
            if len(rest) not in (4, 5):
                return ShellResult(exit_code=1, output=usage)
            coords, error = self._parse_floats(rest[:4])
            if error is not None:
                return ShellResult(
                    exit_code=1,
                    output=f"Error: {error.java_str()}\n{usage}",
                    tool_exception=error,
                )
            if not self._on_screen(coords[0], coords[1]):
                return ShellResult(exit_code=0, output="")
            return self._deliver_ui("swipe", x1=coords[0], y1=coords[1], x2=coords[2], y2=coords[3])
        if cmd == "trackball":
            if len(rest) != 3 or rest[0] != "roll":
                return ShellResult(exit_code=1, output=usage)
            coords, error = self._parse_floats(rest[1:])
            if error is not None:
                return ShellResult(
                    exit_code=1,
                    output=f"Error: {error.java_str()}\n{usage}",
                    tool_exception=error,
                )
            return self._deliver_ui("trackball", dx=coords[0], dy=coords[1])
        return ShellResult(exit_code=1, output=f"Error: Unknown command: {cmd}\n{usage}")

    def _deliver_ui(self, kind: str, **params) -> ShellResult:
        result = self._device.activity_manager.deliver_ui_event(kind, **params)
        return ShellResult(
            exit_code=0,
            output="",
            caused_crash=result.crashed,
            reached_app=result.delivered,
            tool_exception=result.throwable,
        )

    @staticmethod
    def _parse_floats(tokens: List[str]) -> Tuple[List[float], Optional[Throwable]]:
        values: List[float] = []
        for token in tokens:
            try:
                values.append(float(token))
            except ValueError:
                return [], NumberFormatException(f'Invalid float: "{token}"')
        return values, None

    @staticmethod
    def _parse_int(token: str) -> Tuple[int, Optional[Throwable]]:
        try:
            return int(token), None
        except ValueError:
            return 0, NumberFormatException(f'Invalid int: "{token}"')

    def _on_screen(self, x: float, y: float) -> bool:
        width = getattr(self._device, "screen_width", 1440)
        height = getattr(self._device, "screen_height", 2560)
        return 0 <= x < width and 0 <= y < height

    # -- dumpsys ----------------------------------------------------------------
    def _dumpsys(self, args: List[str]) -> ShellResult:
        """``dumpsys [-l | telemetry [--prometheus]]``.

        Keeping with the repo's "observe the system the way Android exposes
        it" discipline: campaign telemetry is read back through the same
        shell surface the study reads logcat through.
        """
        from repro.telemetry import exporters

        if not args or args[0] == "-l":
            return ShellResult(
                exit_code=0, output="Currently running services:\n  telemetry"
            )
        service, rest = args[0], args[1:]
        if service != "telemetry":
            return ShellResult(exit_code=1, output=f"Can't find service: {service}")
        t = self._device.runtime.telemetry
        if not t.enabled:
            return ShellResult(
                exit_code=0,
                output=(
                    "TELEMETRY (disabled)\n"
                    "Enable with repro.telemetry.enable() or the runner's"
                    " --telemetry flag."
                ),
            )
        if "--prometheus" in rest:
            return ShellResult(exit_code=0, output=exporters.render_prometheus(t.metrics))
        return ShellResult(exit_code=0, output=exporters.render_summary(t))

    # -- am ----------------------------------------------------------------------
    def _am(self, args: List[str]) -> ShellResult:
        if not args:
            return ShellResult(exit_code=1, output="usage: am [start|startservice|force-stop] ...")
        cmd, rest = args[0], args[1:]
        if cmd in ("start", "start-activity"):
            return self._am_start(rest, service=False)
        if cmd in ("startservice", "start-service"):
            return self._am_start(rest, service=True)
        if cmd == "force-stop":
            if len(rest) != 1:
                return ShellResult(exit_code=1, output="usage: am force-stop <package>")
            self._device.activity_manager.force_stop(rest[0])
            return ShellResult(exit_code=0, output="")
        return ShellResult(exit_code=1, output=f"Error: unknown command {cmd!r}")

    def _am_start(self, args: List[str], service: bool) -> ShellResult:
        intent, error = self._parse_intent_args(args)
        if error:
            return ShellResult(exit_code=1, output=error)
        # The documented am quirk: a bare component invocation gets the
        # launcher action/category filled in.
        if intent.action is None and intent.data is None and not intent.categories:
            intent.set_action(ACTION_MAIN)
            intent.add_category(CATEGORY_LAUNCHER)
        am = self._device.activity_manager
        header = (
            f"Starting {'service' if service else 'activity'}: {intent.to_log_string()}"
        )
        try:
            if service:
                name = am.start_service(SHELL_PACKAGE, intent)
                if name is None:
                    return ShellResult(
                        exit_code=1,
                        output=f"{header}\nError: Not found; no service started.",
                    )
                return ShellResult(exit_code=0, output=header, reached_app=True)
            result = am.start_activity(SHELL_PACKAGE, intent)
            return ShellResult(
                exit_code=0,
                output=header,
                reached_app=True,
                caused_crash=result.crashed,
                tool_exception=result.throwable,
            )
        except ActivityNotFoundException as exc:
            return ShellResult(
                exit_code=1,
                output=f"{header}\nError: Activity not started, unable to resolve Intent.",
                tool_exception=exc,
            )
        except SecurityException as exc:
            return ShellResult(
                exit_code=1,
                output=f"{header}\nError: {exc.java_str()}",
                tool_exception=exc,
            )

    def _parse_intent_args(self, args: List[str]) -> Tuple[Intent, Optional[str]]:
        intent = Intent()
        i = 0
        while i < len(args):
            flag = args[i]

            def take() -> Optional[str]:
                nonlocal i
                i += 1
                return args[i] if i < len(args) else None

            if flag == "-a":
                value = take()
                if value is None:
                    return intent, "Error: No value for -a"
                # am forwards *any* action string -- no validation (the
                # behaviour the paper flags).
                intent.set_action(value)
            elif flag == "-d":
                value = take()
                if value is None:
                    return intent, "Error: No value for -d"
                intent.set_data_string(value)
            elif flag == "-c":
                value = take()
                if value is None:
                    return intent, "Error: No value for -c"
                intent.add_category(value)
            elif flag == "-t":
                value = take()
                if value is None:
                    return intent, "Error: No value for -t"
                intent.set_type(value)
            elif flag == "-n":
                value = take()
                if value is None:
                    return intent, "Error: No value for -n"
                try:
                    intent.set_component(ComponentName.parse(value))
                except ValueError:
                    return intent, f"Error: Bad component name: {value}"
            elif flag in ("--es", "--ei", "--ef", "--ez"):
                key = take()
                value = take()
                if key is None or value is None:
                    return intent, f"Error: No value for {flag}"
                if flag == "--ei":
                    parsed, err = self._parse_int(value)
                    if err is not None:
                        return intent, f"Error: {err.java_str()}"
                    intent.put_extra(key, parsed)
                elif flag == "--ef":
                    floats, err = self._parse_floats([value])
                    if err is not None:
                        return intent, f"Error: {err.java_str()}"
                    intent.put_extra(key, floats[0])
                elif flag == "--ez":
                    intent.put_extra(key, value.lower() in ("true", "1"))
                else:
                    intent.put_extra(key, value)
            elif flag.startswith("-"):
                return intent, f"Error: Unknown option: {flag}"
            else:
                # Trailing bare argument: treated as component or data URI.
                if "/" in flag and "://" not in flag:
                    try:
                        intent.set_component(ComponentName.parse(flag))
                    except ValueError:
                        intent.set_data_string(flag)
                else:
                    intent.set_data_string(flag)
            i += 1
        return intent, None

    # -- pm ----------------------------------------------------------------------
    def _pm(self, args: List[str]) -> ShellResult:
        if not args:
            return ShellResult(exit_code=1, output="usage: pm [list|grant|revoke] ...")
        cmd, rest = args[0], args[1:]
        if cmd == "list":
            return self._pm_list(rest)
        if cmd in ("grant", "revoke"):
            if len(rest) != 2:
                return ShellResult(exit_code=1, output=f"usage: pm {cmd} <package> <permission>")
            package, permission = rest
            if not self._device.packages.is_installed(package):
                return ShellResult(exit_code=1, output=f"Error: Unknown package: {package}")
            if not self._device.permissions.is_known(permission):
                # The documented pm quirk: garbage permissions are rejected
                # at the tool with an explicit message.
                exc = SecurityException(
                    f"Permission {permission} is not a changeable permission type"
                )
                return ShellResult(
                    exit_code=1,
                    output=f"Operation not allowed: {exc.java_str()}",
                    tool_exception=exc,
                )
            if cmd == "grant":
                self._device.permissions.grant(package, permission)
            else:
                self._device.permissions.revoke(package, permission)
            return ShellResult(exit_code=0, output="")
        return ShellResult(exit_code=1, output=f"Error: unknown command {cmd!r}")

    def _pm_list(self, rest: List[str]) -> ShellResult:
        if rest and rest[0] == "packages":
            lines = [
                f"package:{p.package}" for p in self._device.packages.installed_packages()
            ]
            return ShellResult(exit_code=0, output="\n".join(sorted(lines)))
        if rest and rest[0] == "permissions":
            lines = [f"permission:{name}" for name in self._device.permissions.all_names()]
            return ShellResult(exit_code=0, output="\n".join(sorted(lines)))
        return ShellResult(exit_code=1, output="usage: pm list [packages|permissions]")
