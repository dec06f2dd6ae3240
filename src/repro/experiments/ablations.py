"""Ablation studies over the reproduction's design choices.

The paper makes several empirical choices without sweeping them -- the
100 ms / 250 ms injection pacing ("empirically determined … to ensure the
device is not overloaded"), the implicit severity of error accumulation,
and the claim that reboots need *sequences* of malformed intents.  Because
this reproduction is a simulator, each choice can be swept:

* :func:`ablate_aging_threshold` -- how fragile is the reboot finding to the
  system server's damage threshold?
* :func:`ablate_wedge_deliveries` -- how many silently-absorbed mismatches
  does reboot #1 actually need (the "no single deadly intent" claim)?
* :func:`ablate_pacing` -- what happens to the ambient-reboot escalation
  when injections arrive slower?  (Crash-loop detection needs crashes close
  together; slow enough pacing lets the device "outrun" the loop window.)
* :func:`ablate_stride` -- is the Table III shape stable under quick-scale
  subsampling, i.e. is the quick configuration trustworthy?
* :func:`ablate_guided_vs_blind` -- at an equal intent budget, does the
  feedback-guided scheduler (:mod:`repro.guided`) reach at least the blind
  study's distinct crash buckets?
* :func:`ablate_os_chaos` -- does the behavioural classification survive an
  unreliable OS underneath?  Each fault family (transport, OS-service,
  compat mismatch) runs alone and combined, at intervals aggressive enough
  to bite a quick-scale run; infrastructure manifestations must stay in
  their own counters while the app-level crash/reboot shape holds.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

from repro.analysis.manifest import Manifestation, StudyCollector
from repro.apps.builtin import AMBIENT_BINDER_PACKAGE
from repro.apps.catalog import build_wear_corpus
from repro.apps.health import HEART_RATE_PACKAGE
from repro.experiments.config import QUICK
from repro.farm.shard import build_rig, run_segment
from repro.qgj.campaigns import Campaign
from repro.qgj.fuzzer import FuzzConfig

_QUICK_STRIDES = {Campaign.A: 12, Campaign.B: 1, Campaign.C: 2, Campaign.D: 1}


@dataclasses.dataclass
class AblationRow:
    """One configuration point of an ablation sweep."""

    parameter: str
    value: float
    reboots: int
    crashes_seen: int
    notes: str = ""


def ablate_aging_threshold(
    thresholds: Sequence[float] = (2.0, 4.0, 8.0, 16.0, 32.0)
) -> List[AblationRow]:
    """Sweep the system server's reboot threshold.

    Expected shape: the ambient reboot (campaign D) survives a wide band of
    thresholds because a crash-looping *built-in* component deposits damage
    quickly; only an implausibly high threshold suppresses it.  The sensor
    reboot is threshold-independent (losing a core native service is fatal
    regardless), so at least one reboot persists everywhere.
    """
    rows = []
    for threshold in thresholds:
        _, fuzzer = build_rig(QUICK)
        watch = fuzzer.device
        try:
            # Read only when damage is checked, so setting it after boot is exact.
            watch.system_server.reboot_threshold = threshold
            crashes = 0
            for package, campaign in (
                (HEART_RATE_PACKAGE, Campaign.A),
                (AMBIENT_BINDER_PACKAGE, Campaign.D),
            ):
                result = fuzzer.fuzz_app(
                    package, campaign, FuzzConfig(strides=_QUICK_STRIDES)
                )
                crashes += result.crashes_seen
            rows.append(
                AblationRow(
                    parameter="reboot_threshold",
                    value=threshold,
                    reboots=watch.boot_count - 1,
                    crashes_seen=crashes,
                )
            )
        finally:
            watch.shutdown()
    return rows


def ablate_wedge_deliveries(
    values: Sequence[int] = (1, 5, 25, 60, 200)
) -> List[AblationRow]:
    """Sweep how much silent error accumulation reboot #1 requires.

    At 1 the first mismatched intent wedges the handler (a 'deadly intent'
    world); at values beyond the campaign's per-component volume the state
    never accumulates and the reboot disappears -- bracketing the paper's
    observation that the reboot manifests "at specific states".
    """
    rows = []
    for wedge in values:
        _, fuzzer = build_rig(QUICK, corpus=build_wear_corpus(seed=2018, wedge_deliveries=wedge))
        watch = fuzzer.device
        try:
            result = fuzzer.fuzz_app(
                HEART_RATE_PACKAGE, Campaign.A, FuzzConfig(strides=_QUICK_STRIDES)
            )
            notes = "reboot" if result.aborted_by_reboot else "no reboot"
            rows.append(
                AblationRow(
                    parameter="wedge_deliveries",
                    value=float(wedge),
                    reboots=watch.boot_count - 1,
                    crashes_seen=result.crashes_seen,
                    notes=notes,
                )
            )
        finally:
            watch.shutdown()
    return rows


def ablate_pacing(
    delays_ms: Sequence[float] = (10.0, 100.0, 1_000.0, 16_000.0)
) -> List[AblationRow]:
    """Sweep the inter-intent delay against the ambient crash-loop reboot.

    The system server only treats a component as crash-looping when three
    crashes land within its 30 s window.  The paper's 100 ms pacing easily
    satisfies that; beyond ~15 s spacing the third crash slips outside the
    window, the loop is never detected, and the reboot vanishes -- the
    pacing choice is not cosmetic.
    """
    rows = []
    for delay in delays_ms:
        _, fuzzer = build_rig(QUICK)
        watch = fuzzer.device
        try:
            config = FuzzConfig(strides=_QUICK_STRIDES, intent_delay_ms=delay)
            result = fuzzer.fuzz_app(AMBIENT_BINDER_PACKAGE, Campaign.D, config)
            rows.append(
                AblationRow(
                    parameter="intent_delay_ms",
                    value=delay,
                    reboots=watch.boot_count - 1,
                    crashes_seen=result.crashes_seen,
                    notes="loop detected" if result.aborted_by_reboot else "loop outran",
                )
            )
        finally:
            watch.shutdown()
    return rows


@dataclasses.dataclass
class StrideStabilityRow:
    """Table III stability at one subsampling scale."""

    label: str
    a_stride: int
    health_crash_apps: Dict[str, int]
    other_crash_apps: Dict[str, int]


def ablate_stride(
    scales: Sequence[Dict[Campaign, int]] = (
        {Campaign.A: 12, Campaign.B: 1, Campaign.C: 2, Campaign.D: 1},
        {Campaign.A: 36, Campaign.B: 1, Campaign.C: 6, Campaign.D: 1},
    ),
    packages: Sequence[str] = (
        "com.runmate.wear",
        "com.fitband.wear",
        "com.stepcount.wear",
        "com.sleepwell.wear",
        "com.yogaflow.wear",
    ),
) -> List[StrideStabilityRow]:
    """Check that per-campaign crash sets are stable across strides.

    The quick configuration's claim is that subsampling preserves campaign
    *structure*; this sweep verifies that the set of apps crashing per
    campaign does not change as campaign A thins further.
    """
    rows = []
    for scale in scales:
        corpus, fuzzer = build_rig(QUICK)
        collector = StudyCollector(corpus.packages())
        try:
            fuzzer.device.adb.logcat_clear()
            for package in packages:
                for campaign in Campaign:
                    run_segment(fuzzer, collector, package, campaign, FuzzConfig(strides=dict(scale)))
        finally:
            fuzzer.device.shutdown()
        health_crashes: Dict[str, int] = {}
        for campaign in Campaign:
            health_crashes[campaign.value] = sum(
                1
                for package in packages
                if collector.app_campaign.get((package, campaign.value))
                == Manifestation.CRASH
            )
        rows.append(
            StrideStabilityRow(
                label=f"A/{scale[Campaign.A]}",
                a_stride=scale[Campaign.A],
                health_crash_apps=health_crashes,
                other_crash_apps={},
            )
        )
    return rows


@dataclasses.dataclass
class VendorAblationRow:
    """Crash counts with and without the vendor layer."""

    device_label: str
    builtin_apps: int
    builtin_crashing_apps: int
    vendor_crashing_apps: int


def ablate_vendor_layer(
    campaigns: Sequence[Campaign] = (Campaign.B, Campaign.C),
) -> List[VendorAblationRow]:
    """Threat-to-validity #1: vendor-specific customisations.

    The paper's intent study "used a single wearable device and thus is
    blind to vendor-specific customizations"; its UI study deliberately
    switched to the emulator to drop them.  Here we run the same focused
    intent campaigns on both populations -- the Moto 360 (with Motorola's
    vendor layer) and the Watch emulator (without) -- and compare built-in
    crash behaviour.  The vendor app's crashes exist only on real hardware,
    quantifying what single-device studies miss.
    """
    rows: List[VendorAblationRow] = []
    for label, kind in (("moto360 (vendor layer)", "wear"), ("emulator (no vendor)", "emulator")):
        _, fuzzer = build_rig(QUICK, kind)
        device = fuzzer.device
        try:
            collector = StudyCollector(device.packages.installed_packages())
            device.adb.logcat_clear()
            builtin_packages = [
                p for p in device.packages.installed_packages() if p.is_built_in
            ]
            for package in builtin_packages:
                for campaign in campaigns:
                    run_segment(
                        fuzzer, collector, package.package, campaign,
                        FuzzConfig(strides=_QUICK_STRIDES),
                    )
        finally:
            device.shutdown()
        crashed = set(collector.crashing_packages())
        vendor_crashed = sum(
            1 for p in builtin_packages if p.vendor and p.package in crashed
        )
        rows.append(
            VendorAblationRow(
                device_label=label,
                builtin_apps=len(builtin_packages),
                builtin_crashing_apps=sum(
                    1 for p in builtin_packages if p.package in crashed
                ),
                vendor_crashing_apps=vendor_crashed,
            )
        )
    return rows


@dataclasses.dataclass
class GuidedAblationRow:
    """Guided vs blind at one (equal) intent budget."""

    mode: str                   # "blind" | "guided"
    intents: int                # intents actually sent
    distinct_buckets: int       # distinct (component, exception) crash buckets
    buckets_per_kintents: float
    corpus_size: int            # behaviours banked (0 for blind)
    rounds: int                 # scheduler rounds (0 for blind)


def ablate_guided_vs_blind(
    packages: Optional[Sequence[str]] = None,
    config=None,
    guided=None,
) -> List[GuidedAblationRow]:
    """Does feedback guidance buy crash coverage at a fixed intent budget?

    The blind study spends the paper's fixed per-(package, campaign) volume;
    the guided study gets *the same total budget* (the blind run's actual
    sends) and lets the bandit redistribute it.  Buckets are compared on the
    coarse ``(component, exception root class)`` key both pipelines can
    produce -- the blind side buckets from the logcat-derived study
    collector, the guided side from dispatch-observed crashes -- so neither
    side gets credit for a signal the other cannot see.
    """
    from repro.guided import GuidedConfig, run_guided_study

    if config is None:
        config = QUICK
    if guided is None:
        guided = GuidedConfig()

    # -- blind: the paper's fixed volumes, logcat-classified ----------------------
    corpus, fuzzer = build_rig(config)
    if packages is None:
        packages = [app.package.package for app in corpus.apps]
    collector = StudyCollector(corpus.packages())
    blind_sent = 0
    try:
        fuzzer.device.adb.logcat_clear()
        for package in packages:
            for campaign in Campaign:
                blind_sent += run_segment(fuzzer, collector, package, campaign, config.fuzz).sent
    finally:
        fuzzer.device.shutdown()
    blind_buckets = {
        (record.component, cls)
        for record in collector.component_records()
        for cls in record.fatal_root_classes
    }

    # -- guided: same budget, bandit-allocated ------------------------------------
    guided = dataclasses.replace(guided, budget=blind_sent)
    guided_result = run_guided_study(config, guided, packages=packages)
    guided_buckets = {
        (component, exception)
        for component, exception, _frame in guided_result.crash_buckets
    }

    def per_kilo(buckets: int, intents: int) -> float:
        return buckets / (intents / 1000.0) if intents else 0.0

    return [
        GuidedAblationRow(
            mode="blind",
            intents=blind_sent,
            distinct_buckets=len(blind_buckets),
            buckets_per_kintents=per_kilo(len(blind_buckets), blind_sent),
            corpus_size=0,
            rounds=0,
        ),
        GuidedAblationRow(
            mode="guided",
            intents=guided_result.total_sent,
            distinct_buckets=len(guided_buckets),
            buckets_per_kintents=per_kilo(len(guided_buckets), guided_result.total_sent),
            corpus_size=len(guided_result.corpus),
            rounds=len(guided_result.rounds),
        ),
    ]


@dataclasses.dataclass
class OsChaosRow:
    """Crash/reboot shape under one environment-fault family."""

    scenario: str               # "baseline" | "transport" | "service" | "compat" | "all"
    crashes_seen: int           # app-level crashes (the behavioural signal)
    reboots: int                # full device reboots (boot_count - 1)
    retries: int                # transient faults absorbed by the retry layer
    transport_failures: int     # infra: injections lost after retries
    compat_mismatches: int      # infra: version-gated rejections
    quarantined: int            # packages the circuit breaker pulled


#: Quick-scale fault intervals (virtual ms): a two-package quick run spans
#: tens of virtual minutes, so the default chaos profile (faults every
#: 10-180 virtual minutes) would barely fire.  These are 10-20x denser --
#: aggressive enough that every family manifests, sparse enough that the
#: campaigns still complete.
_OS_CHAOS_SCENARIOS = {
    "baseline": None,
    "transport": dict(binder_every_ms=45_000.0, adb_drop_every_ms=240_000.0),
    "service": dict(
        service_outage_every_ms=90_000.0,
        service_corrupt_every_ms=120_000.0,
        system_restart_every_ms=600_000.0,
    ),
    "compat": dict(compat_mismatch_every_ms=60_000.0),
    "all": dict(
        binder_every_ms=45_000.0,
        adb_drop_every_ms=240_000.0,
        service_outage_every_ms=90_000.0,
        service_corrupt_every_ms=120_000.0,
        system_restart_every_ms=600_000.0,
        compat_mismatch_every_ms=60_000.0,
    ),
}

#: Scenarios whose compat stream should actually manifest (the others get
#: no matrix, so even an armed compat stream stays inert).
_OS_CHAOS_SKEWED = {"compat", "all"}


def ablate_os_chaos(
    seed: int = 7,
    skew: int = 3,
    packages: Sequence[str] = (HEART_RATE_PACKAGE, AMBIENT_BINDER_PACKAGE),
) -> List[OsChaosRow]:
    """Sweep the fault families the chaos plane can stack under a campaign.

    The paper's measurements implicitly assume the OS under the fuzzer is
    healthy; this sweep drops that assumption one family at a time.  The
    property being checked is *separation*: transport and OS-service faults
    are absorbed (retries) or surface as infrastructure counters, compat
    mismatches land in their own counter, and none of them masquerade as
    app-level crashes -- while faults that strike *inside* an app lifecycle
    (a sensor outage mid-registration, a system_server bounce) legitimately
    move the behavioural numbers, which is exactly the robustness cost the
    row exposes.
    """
    from repro import faults

    rows: List[OsChaosRow] = []
    for scenario, intervals in _OS_CHAOS_SCENARIOS.items():
        plan = None
        if intervals is not None:
            compat = (
                faults.CompatMatrix.from_skew(skew)
                if scenario in _OS_CHAOS_SKEWED
                else None
            )
            plan = faults.FaultPlan(seed=seed, compat=compat, **intervals)
        with faults.session(plan):
            # No runtime: the unbound devices reach the session's plan.
            _, fuzzer = build_rig(QUICK)
            watch = fuzzer.device
            try:
                crashes = retries = failures = mismatches = 0
                quarantined = set()
                for package in packages:
                    for campaign in (Campaign.A, Campaign.D):
                        result = fuzzer.fuzz_app(
                            package, campaign, FuzzConfig(strides=_QUICK_STRIDES)
                        )
                        crashes += result.crashes_seen
                        retries += result.retries
                        failures += result.transport_failures
                        mismatches += result.compat_mismatches
                        if result.quarantined:
                            quarantined.add(package)
                rows.append(
                    OsChaosRow(
                        scenario=scenario,
                        crashes_seen=crashes,
                        reboots=watch.boot_count - 1,
                        retries=retries,
                        transport_failures=failures,
                        compat_mismatches=mismatches,
                        quarantined=len(quarantined),
                    )
                )
            finally:
                watch.shutdown()
    return rows


def render_os_chaos_rows(rows: Sequence[OsChaosRow]) -> str:
    lines = [
        "ABLATION: OS chaos fault families",
        "-" * 72,
        f"{'scenario':>10} {'crashes':>8} {'reboots':>8} {'retries':>8} "
        f"{'xport-fail':>10} {'compat':>7} {'quar':>5}",
    ]
    for row in rows:
        lines.append(
            f"{row.scenario:>10} {row.crashes_seen:>8} {row.reboots:>8} "
            f"{row.retries:>8} {row.transport_failures:>10} "
            f"{row.compat_mismatches:>7} {row.quarantined:>5}"
        )
    return "\n".join(lines)


def render_rows(rows: Sequence[AblationRow]) -> str:
    lines = [
        f"ABLATION: {rows[0].parameter}" if rows else "ABLATION (empty)",
        "-" * 60,
        f"{'value':>12} {'reboots':>8} {'crashes':>8}  notes",
    ]
    for row in rows:
        lines.append(
            f"{row.value:>12g} {row.reboots:>8} {row.crashes_seen:>8}  {row.notes}"
        )
    return "\n".join(lines)
