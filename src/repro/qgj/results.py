"""Result records produced by the QGJ fuzzer library.

These capture what the *tool* can see from user level: intents it sent,
security rejections it received, resolution failures, crashes and ANRs it
noticed in flight, and reboots it survived.  The authoritative behavioural
classification (Tables III-V, Figures 2-4) is produced separately by
:mod:`repro.analysis` from the collected ``logcat`` text, matching the
paper's methodology; the counters here drive QGJ Mobile's on-device summary
and the experiment progress reporting.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List

from repro.android.component import ComponentKind
from repro.qgj.campaigns import Campaign


@dataclasses.dataclass
class ComponentRunResult:
    """Aggregate of one campaign against one component."""

    component: str
    kind: ComponentKind
    campaign: Campaign
    sent: int = 0
    delivered: int = 0
    security_exceptions: int = 0
    not_found: int = 0
    crashes_seen: int = 0
    anrs_seen: int = 0
    rebooted: bool = False
    aborted: bool = False
    #: Injections lost to the environment (adb drop / binder transport)
    #: after retries were exhausted -- infrastructure noise, never folded
    #: into the behavioural classification.
    transport_failures: int = 0
    #: Transient transport errors recovered by the retry layer.
    retries: int = 0
    #: Version-gated calls rejected under a skewed phone/wear pair --
    #: permanent infrastructure faults (never retried, never folded into
    #: the behavioural classification).
    compat_mismatches: int = 0
    #: True when the circuit breaker quarantined the package mid-component.
    quarantined: bool = False

    def merge_counts(self) -> Dict[str, int]:
        return {
            "sent": self.sent,
            "delivered": self.delivered,
            "security_exceptions": self.security_exceptions,
            "not_found": self.not_found,
            "crashes_seen": self.crashes_seen,
            "anrs_seen": self.anrs_seen,
        }


@dataclasses.dataclass
class AppRunResult:
    """Aggregate of one campaign against one application."""

    package: str
    campaign: Campaign
    components: List[ComponentRunResult] = dataclasses.field(default_factory=list)
    aborted_by_reboot: bool = False
    #: True when the package was (or already stood) quarantined by the
    #: transport circuit breaker; remaining components were skipped.
    quarantined: bool = False

    @property
    def sent(self) -> int:
        return sum(c.sent for c in self.components)

    @property
    def crashes_seen(self) -> int:
        return sum(c.crashes_seen for c in self.components)

    @property
    def rebooted(self) -> bool:
        return any(c.rebooted for c in self.components)

    @property
    def transport_failures(self) -> int:
        return sum(c.transport_failures for c in self.components)

    @property
    def retries(self) -> int:
        return sum(c.retries for c in self.components)

    @property
    def compat_mismatches(self) -> int:
        return sum(c.compat_mismatches for c in self.components)


@dataclasses.dataclass
class FuzzSummary:
    """The summary QGJ Wear ships back to QGJ Mobile over the DataAPI."""

    device: str
    apps: List[AppRunResult] = dataclasses.field(default_factory=list)

    @classmethod
    def merge(cls, summaries: List["FuzzSummary"]) -> "FuzzSummary":
        """Combine per-shard summaries into one study summary.

        Shard results concatenate in the order given (the farm passes shards
        in corpus order, so a merged summary lists apps exactly as a serial
        run would).  Two shards reporting the same ``(package, campaign)``
        segment is a partitioning bug and is rejected, as is merging results
        from different devices or an empty list.
        """
        summaries = list(summaries)
        if not summaries:
            raise ValueError("nothing to merge: no summaries")
        devices = {summary.device for summary in summaries}
        if len(devices) > 1:
            raise ValueError(
                f"cannot merge summaries from different devices: {sorted(devices)}"
            )
        merged = cls(device=summaries[0].device)
        seen = set()
        for summary in summaries:
            for app in summary.apps:
                key = (app.package, app.campaign)
                if key in seen:
                    raise ValueError(
                        f"overlapping shard results: ({app.package}, "
                        f"{app.campaign.value}) reported by more than one shard"
                    )
                seen.add(key)
                merged.apps.append(app)
        return merged

    @property
    def total_sent(self) -> int:
        return sum(app.sent for app in self.apps)

    @property
    def total_security_exceptions(self) -> int:
        return sum(c.security_exceptions for app in self.apps for c in app.components)

    @property
    def total_crashes_seen(self) -> int:
        return sum(app.crashes_seen for app in self.apps)

    @property
    def total_reboots(self) -> int:
        return sum(1 for app in self.apps if app.aborted_by_reboot)

    @property
    def total_transport_failures(self) -> int:
        return sum(app.transport_failures for app in self.apps)

    @property
    def total_retries(self) -> int:
        return sum(app.retries for app in self.apps)

    @property
    def total_compat_mismatches(self) -> int:
        return sum(app.compat_mismatches for app in self.apps)

    @property
    def quarantined_packages(self) -> List[str]:
        return sorted({app.package for app in self.apps if app.quarantined})

    def to_wire(self) -> Dict[str, object]:
        """Flatten for DataAPI transport (plain JSON-able types only)."""
        return {
            "device": self.device,
            "total_sent": self.total_sent,
            "total_security_exceptions": self.total_security_exceptions,
            "total_crashes_seen": self.total_crashes_seen,
            "total_reboots": self.total_reboots,
            "total_transport_failures": self.total_transport_failures,
            "total_retries": self.total_retries,
            "total_compat_mismatches": self.total_compat_mismatches,
            "quarantined_packages": self.quarantined_packages,
            "apps": [
                {
                    "package": app.package,
                    "campaign": app.campaign.value,
                    "sent": app.sent,
                    "crashes_seen": app.crashes_seen,
                    "aborted_by_reboot": app.aborted_by_reboot,
                    "quarantined": app.quarantined,
                }
                for app in self.apps
            ],
        }

    def render(self) -> str:
        """Human-readable summary (what QGJ Mobile shows after a run)."""
        lines = [
            f"QGJ fuzz summary for {self.device}",
            f"  intents sent:        {self.total_sent}",
            f"  security exceptions: {self.total_security_exceptions}",
            f"  crashes observed:    {self.total_crashes_seen}",
            f"  device reboots:      {self.total_reboots}",
            f"  apps fuzzed:         {len({a.package for a in self.apps})}",
        ]
        # Chaos-plane accounting shown only when the environment actually bit.
        if self.total_retries or self.total_transport_failures:
            lines.append(f"  transport retries:   {self.total_retries}")
            lines.append(f"  transport failures:  {self.total_transport_failures}")
        if self.total_compat_mismatches:
            lines.append(f"  compat mismatches:   {self.total_compat_mismatches}")
        if self.quarantined_packages:
            lines.append(
                f"  quarantined apps:    {', '.join(self.quarantined_packages)}"
            )
        return "\n".join(lines)
