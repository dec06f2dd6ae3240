"""Crash triage: bucketing, deduplication, and intent minimisation.

The paper closes with the observation that "automated robustness testing
tools (such as QGJ) can help in detecting such bugs and bridging this gap"
-- but a raw campaign produces thousands of FATAL blocks for a developer to
wade through.  This module is the missing developer-facing half of the
tool:

* **bucketing** -- crashes are deduplicated by their signature (component,
  root exception class, throwing frame), the same grouping a crash-reporting
  backend performs;
* **minimisation** -- for each bucket, a greedy delta-debugging pass strips
  the example intent down to the minimal field set that still reproduces
  the same crash signature (drop the data URI, drop extras one by one, drop
  the action, shrink the data to its scheme), yielding the one-line
  reproducer a bug report needs;
* **reporting** -- a ranked triage report, one bucket per latent defect.

Probing is done against the live device but leaves no residue: after every
probe the target package is force-stopped and the system server's aging
state restored, so triage never triggers the escalation paths the study
reserves for campaigns.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

from repro.android.component import ComponentInfo, ComponentKind
from repro.android.device import Device
from repro.android.jtypes import SecurityException, Throwable
from repro.qgj.campaigns import Campaign, FuzzIntent, generate
from repro.qgj.fuzzer import QGJ_WEAR_PACKAGE, FuzzConfig


def _shell_arg(value: str) -> str:
    """Quote *value* for a shell line, escaping control characters."""
    import shlex

    printable = value.encode("unicode_escape").decode("ascii")
    return shlex.quote(printable) if printable else "''"


@dataclasses.dataclass(frozen=True)
class CrashSignature:
    """The dedup key for one latent defect."""

    component: str
    exception: str           # root-cause Java class
    frame: str               # topmost app frame ("class.method")

    def render(self) -> str:
        return f"{self.exception.rsplit('.', 1)[-1]} at {self.frame} ({self.component})"


@dataclasses.dataclass
class CrashBucket:
    """All observed crashes sharing one signature."""

    signature: CrashSignature
    count: int = 0
    example: Optional[FuzzIntent] = None
    minimized: Optional[FuzzIntent] = None

    def reproducer(self) -> str:
        """The ``adb shell am`` line that reproduces this bucket.

        Arguments are shell-quoted and control characters escaped, so the
        line is always a single printable command (fuzzed payloads can
        contain anything).
        """
        intent = self.minimized or self.example
        if intent is None:
            return "(no example recorded)"
        package, _, cls = self.signature.component.partition("/")
        parts = ["am start" if "Activity" in cls else "am startservice"]
        if intent.action is not None:
            parts.append(f"-a {_shell_arg(intent.action)}")
        if intent.data:
            parts.append(f"-d {_shell_arg(intent.data)}")
        for key, value in intent.extras:
            parts.append(f"--es {_shell_arg(key)} {_shell_arg(str(value))}")
        parts.append(f"-n {package}/{cls}")
        return " ".join(parts)


class CrashProber:
    """Residue-free single-intent probing against a live device."""

    def __init__(self, device: Device, sender_package: str = QGJ_WEAR_PACKAGE) -> None:
        self._device = device
        self.sender_package = sender_package
        self.probes = 0

    def signature_of(
        self, info: ComponentInfo, fuzz_intent: FuzzIntent
    ) -> Optional[CrashSignature]:
        """Deliver once; return the crash signature, or ``None``.

        The target package is force-stopped afterwards and the aging state
        restored, so probing cannot contribute to escalation.
        """
        self.probes += 1
        intent = fuzz_intent.build(info.name)
        am = self._device.activity_manager
        boots_before = self._device.boot_count
        try:
            if info.kind == ComponentKind.ACTIVITY:
                result = am.start_activity(self.sender_package, intent)
            else:
                _, result = am.start_service_with_result(self.sender_package, intent)
        except SecurityException:
            return None
        except Throwable:
            return None
        finally:
            am.force_stop(info.package)
            self._device.system_server.aging.reset()
        if self._device.boot_count != boots_before:
            # A probe that reboots the device has no stable crash signature;
            # escalation analysis is the campaigns' job, not triage's.
            return None
        if not result.crashed or result.throwable is None:
            return None
        root = result.throwable.root_cause()
        frame = root.frames[0] if root.frames else None
        frame_text = f"{frame.class_name}.{frame.method}" if frame else "(unknown)"
        return CrashSignature(
            component=info.name.flatten_to_string(),
            exception=type(root).JAVA_NAME,
            frame=frame_text,
        )


def _without_extra(fuzz_intent: FuzzIntent, index: int) -> FuzzIntent:
    extras = tuple(e for i, e in enumerate(fuzz_intent.extras) if i != index)
    return FuzzIntent(action=fuzz_intent.action, data=fuzz_intent.data, extras=extras)


def minimize_intent(
    prober: CrashProber,
    info: ComponentInfo,
    fuzz_intent: FuzzIntent,
    signature: CrashSignature,
) -> FuzzIntent:
    """Greedy field-wise minimisation preserving the crash signature.

    Tries, in order: dropping every extra, dropping the data URI, shrinking
    the data to ``scheme:`` only, dropping the action.  Each simplification
    is kept only if the probe still reproduces *signature*.
    """
    current = fuzz_intent

    # Drop extras one at a time (right to left keeps indices stable).
    index = len(current.extras) - 1
    while index >= 0:
        candidate = _without_extra(current, index)
        if prober.signature_of(info, candidate) == signature:
            current = candidate
        index -= 1

    if current.data:
        candidate = FuzzIntent(action=current.action, data=None, extras=current.extras)
        if prober.signature_of(info, candidate) == signature:
            current = candidate
        else:
            scheme = current.data.split(":", 1)[0]
            shrunk = FuzzIntent(
                action=current.action, data=f"{scheme}:", extras=current.extras
            )
            if prober.signature_of(info, shrunk) == signature:
                current = shrunk

    if current.action is not None:
        candidate = FuzzIntent(action=None, data=current.data, extras=current.extras)
        if prober.signature_of(info, candidate) == signature:
            current = candidate

    return current


@dataclasses.dataclass
class TriageReport:
    """Ranked crash buckets for one app."""

    package: str
    buckets: List[CrashBucket]
    intents_probed: int

    def render(self) -> str:
        lines = [
            f"CRASH TRIAGE: {self.package}",
            "-" * 72,
            f"{len(self.buckets)} distinct defects "
            f"({sum(b.count for b in self.buckets)} raw crashes, "
            f"{self.intents_probed} probe injections)",
        ]
        for i, bucket in enumerate(
            sorted(self.buckets, key=lambda b: -b.count), start=1
        ):
            lines.append(f"#{i} x{bucket.count}  {bucket.signature.render()}")
            lines.append(f"    repro: {bucket.reproducer()}")
        return "\n".join(lines)


def triage_app(
    device: Device,
    package_name: str,
    campaigns: Sequence[Campaign] = tuple(Campaign),
    config: Optional[FuzzConfig] = None,
    minimize: bool = True,
    sender_package: str = QGJ_WEAR_PACKAGE,
) -> TriageReport:
    """Fuzz one app and return its deduplicated, minimised crash buckets.

    Unlike :meth:`FuzzerLibrary.fuzz_app`, this probes intent-by-intent so
    every crash can be tied to the exact input that produced it.
    """
    package = device.packages.get_package(package_name)
    if package is None:
        raise ValueError(f"package not installed: {package_name}")
    if config is None:
        config = FuzzConfig(
            strides={Campaign.A: 12, Campaign.B: 1, Campaign.C: 2, Campaign.D: 1}
        )
    prober = CrashProber(device, sender_package)
    buckets: Dict[CrashSignature, CrashBucket] = {}
    for info in package.components:
        if info.kind not in (ComponentKind.ACTIVITY, ComponentKind.SERVICE):
            continue
        for campaign in campaigns:
            for fuzz_intent in generate(
                campaign,
                seed=config.seed,
                component=info.name,
                stride=config.stride_for(campaign),
            ):
                signature = prober.signature_of(info, fuzz_intent)
                if signature is None:
                    continue
                bucket = buckets.setdefault(signature, CrashBucket(signature=signature))
                bucket.count += 1
                if bucket.example is None:
                    bucket.example = fuzz_intent
    if minimize:
        for bucket in buckets.values():
            assert bucket.example is not None
            bucket.minimized = minimize_intent(
                prober, _info_for(package, bucket.signature), bucket.example, bucket.signature
            )
    return TriageReport(
        package=package_name,
        buckets=list(buckets.values()),
        intents_probed=prober.probes,
    )


def _info_for(package, signature: CrashSignature) -> ComponentInfo:
    for info in package.components:
        if info.name.flatten_to_string() == signature.component:
            return info
    raise KeyError(signature.component)
