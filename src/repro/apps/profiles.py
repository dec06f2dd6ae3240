"""Calibration profiles for the synthetic app corpus.

The study's subjects were 46 real Android Wear apps and 63 ``com.android.*``
phone apps.  We cannot ship those, so :mod:`repro.apps.catalog` generates a
synthetic population whose *structure* matches Table II exactly and whose
*defect distribution* is calibrated to the paper's measured marginals.  This
module is the single place those calibration constants live, so DESIGN.md's
substitution statement has one auditable anchor.

Two kinds of constants:

* **population structure** (:data:`WEAR_POPULATION`, :data:`PHONE_POPULATION`)
  -- app/activity/service counts per category, straight from Table II and
  Section III-D;
* **defect quotas** -- how many apps crash/hang per campaign and category
  (Table III), which exception classes cause crashes in which proportion
  (Fig. 2/3b for Wear, Table IV for the phone), and how often apps handle
  exceptions gracefully (the ~10% "exception thrown but handled" slice of
  the no-effect bar).

The campaign→trigger mapping is *not* a calibration constant: triggers fire
on intent content (see :mod:`repro.apps.behavior`), and campaigns produce
the content.  The quotas only decide which apps carry which latent defects,
standing in for the app-store sampling the authors did.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Tuple

from repro.apps.behavior import Trigger

# ---------------------------------------------------------------------------
# Population structure (Table II; Section III-D for the phone).
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class PopulationCell:
    """One row of Table II."""

    apps: int
    activities: int
    services: int


#: (category, origin) → counts.  Totals: 46 apps, 514 activities, 398 services.
WEAR_POPULATION: Dict[Tuple[str, str], PopulationCell] = {
    ("Health/Fitness", "Built-in"): PopulationCell(apps=2, activities=81, services=34),
    ("Health/Fitness", "Third Party"): PopulationCell(apps=11, activities=80, services=59),
    ("Not Health/Fitness", "Built-in"): PopulationCell(apps=9, activities=168, services=188),
    ("Not Health/Fitness", "Third Party"): PopulationCell(apps=24, activities=185, services=117),
}

#: The phone study: 63 com.android.* apps, 595 activities, 218 services.
PHONE_POPULATION = PopulationCell(apps=63, activities=595, services=218)

#: Third-party selection floor used by the authors ("> 1 million downloads").
MIN_THIRD_PARTY_DOWNLOADS = 1_000_000

# ---------------------------------------------------------------------------
# App-level crash quotas per campaign (Table III, converted from percentages
# of 13 health and 33 not-health apps to integer app counts).
# ---------------------------------------------------------------------------

#: campaign → number of Health/Fitness apps that crash under it.
HEALTH_CRASH_QUOTA: Dict[str, int] = {"A": 3, "B": 4, "C": 4, "D": 2}

#: campaign → number of Not-Health apps that crash under it.
OTHER_CRASH_QUOTA: Dict[str, int] = {"A": 10, "B": 8, "C": 11, "D": 10}

#: Apps that crash at least once: 7 of 11 built-in (64%), 16 of 35
#: third-party (46%) -- Fig. 4's headline split.
HEALTH_CRASH_APPS = 7           # 2 built-in (Google Fit, Motorola Body) + 5 third-party
OTHER_CRASH_APPS = 16           # 5 built-in + 11 third-party
OTHER_BUILTIN_CRASH_APPS = 5    # includes the ambient-reboot app

#: Crash-vulnerable components per (app, campaign) slot; with ~52 slots this
#: lands the component-level crash count near the ~8% of Fig. 3a.
COMPONENTS_PER_CRASH_SLOT = (1, 3)

# ---------------------------------------------------------------------------
# Exception-class mixes.
# ---------------------------------------------------------------------------

#: Wear crash causes (Fig. 2 / Fig. 3b): NullPointerException still leads but
#: with a smaller share than Android-2012's 46%, IllegalArgument- and
#: IllegalStateException grown, plus a long tail.
WEAR_CRASH_EXCEPTION_MIX: Dict[str, float] = {
    "java.lang.NullPointerException": 0.29,
    "java.lang.IllegalArgumentException": 0.24,
    "java.lang.IllegalStateException": 0.18,
    "java.lang.ClassNotFoundException": 0.06,
    "java.lang.RuntimeException": 0.05,
    "java.lang.ClassCastException": 0.05,
    "java.lang.UnsupportedOperationException": 0.04,
    "android.content.ActivityNotFoundException": 0.04,
    "android.database.sqlite.SQLiteException": 0.03,
    "java.lang.IndexOutOfBoundsException": 0.02,
}

#: Phone crash causes (Table IV percentages).
PHONE_CRASH_EXCEPTION_MIX: Dict[str, float] = {
    "java.lang.NullPointerException": 0.309,
    "java.lang.ClassNotFoundException": 0.263,
    "java.lang.IllegalArgumentException": 0.177,
    "java.lang.IllegalStateException": 0.057,
    "java.lang.RuntimeException": 0.051,
    "android.content.ActivityNotFoundException": 0.040,
    "java.lang.UnsupportedOperationException": 0.034,
    # "Others" (6.9%, 12 crashes) split across a plausible tail, each class
    # below the paper's fewer-than-5-crashes fold threshold.
    "java.lang.ClassCastException": 0.023,
    "android.database.sqlite.SQLiteException": 0.023,
    "android.os.BadParcelableException": 0.023,
}

#: Total phone crash-vulnerable components (Table IV sums to 175 crashes).
PHONE_CRASH_COMPONENTS = 175

#: Exceptions apps *catch and log* (the handled slice).  Dominated by
#: IllegalArgumentException -- which is why IAE is the largest class in
#: Fig. 2 even though NPE leads the crash causes.
HANDLED_EXCEPTION_MIX: Dict[str, float] = {
    "java.lang.IllegalArgumentException": 0.47,
    "java.lang.NullPointerException": 0.17,
    "java.lang.IllegalStateException": 0.11,
    "java.lang.NumberFormatException": 0.12,
    "java.lang.SecurityException": 0.08,
    "java.lang.ClassCastException": 0.05,
}

#: Fraction of exported components that carry a handled-exception quirk.
HANDLED_QUIRK_FRACTION = 0.12

#: Fraction of components that are not exported / permission-guarded
#: (both produce SecurityExceptions at the activity-manager boundary).
NOT_EXPORTED_FRACTION = 0.15
PERMISSION_GUARDED_FRACTION = 0.05

# ---------------------------------------------------------------------------
# Campaign → trigger vocabulary (which intent features each campaign's
# generator produces; used when assigning a defect for a campaign slot).
# ---------------------------------------------------------------------------

CAMPAIGN_TRIGGERS: Dict[str, Tuple[Trigger, ...]] = {
    "A": (Trigger.ACTION_DATA_MISMATCH,),
    "B": (Trigger.MISSING_ACTION, Trigger.MISSING_DATA),
    "C": (Trigger.UNKNOWN_ACTION, Trigger.MALFORMED_DATA),
    "D": (Trigger.UNEXPECTED_EXTRAS, Trigger.EXTRA_TYPE_CONFUSION),
}

#: Triggers usable for handled-exception quirks (any campaign may reveal one).
ALL_QUIRK_TRIGGERS: Tuple[Trigger, ...] = (
    Trigger.ACTION_DATA_MISMATCH,
    Trigger.MISSING_ACTION,
    Trigger.MISSING_DATA,
    Trigger.UNKNOWN_ACTION,
    Trigger.MALFORMED_DATA,
    Trigger.UNEXPECTED_EXTRAS,
)

# ---------------------------------------------------------------------------
# Hang calibration (Table III: hangs are a Health-only, A/C/D phenomenon;
# Fig. 3a: crash components outnumber unresponsive ones ~8x).
# ---------------------------------------------------------------------------

#: Hang components for the dedicated hang app (triggered in A, C, D).
HANG_APP_COMPONENTS = 6

#: Exception classes logged just before a handler blocks (Fig. 3b's
#: unresponsive bar: ISE dominates, DeadObjectException present).
HANG_EXCEPTION_MIX: Dict[str, float] = {
    "java.lang.IllegalStateException": 0.6,
    "android.os.DeadObjectException": 0.25,
    "java.lang.RuntimeException": 0.15,
}

#: Extra hang components placed in apps that also crash (their app-level
#: manifestation stays "crash", so Table III is unaffected).
EXTRA_HANG_COMPONENTS = 3

# ---------------------------------------------------------------------------
# Reboot scenarios (Section IV-B's two post-mortems).
# ---------------------------------------------------------------------------

#: Mismatched intents the heart-rate service absorbs before its handler
#: wedges (reboot #1 happens "at specific states", not on one intent).
HEART_RATE_WEDGE_DELIVERIES = 25

#: Consecutive crashes of the ambient-binder app that precede reboot #2
#: (must reach the system server's crash-loop threshold with aging high).
AMBIENT_CRASH_LOOP = 3


# ---------------------------------------------------------------------------
# The Watch-emulator selection for QGJ-UI (Section III-E / Table V).
# ---------------------------------------------------------------------------

#: Third-party apps on the emulator: "the top 20 of the most popular
#: third-party apps" (Section III-E).
EMULATOR_TOP_THIRD_PARTY = 20

#: Share of UI events that make a launcher log a handled exception; with
#: the monkey's event mix this lands Table V's semi-valid 3.6% exceptions.
UI_HANDLED_FRACTION = 0.045

#: Share of taps that crash a fragile launcher: Table V's semi-valid 0.05%
#: crashes (and none under random mutation).
UI_CRASH_FRACTION = 0.03

#: Third-party apps whose launcher carries that crash defect (Table V).
UI_FRAGILE_APPS = 3


# ---------------------------------------------------------------------------
# Fleet cohorts: heterogeneous device-pair profiles.
#
# The single-pair studies replay the paper's exact Nexus 6 / Moto 360 test
# bed.  The fleet kernel instead samples a *population*: each pair is drawn
# from a cohort whose hardware tier parameterizes the existing simulator
# knobs -- RAM pressure maps to an lmkd kill stream, OS skew to a
# CompatMatrix, Bluetooth quality to pairing latency, battery health to an
# ambient-mode duty cycle on the watch.  Profiles are pure data; the fleet
# planner turns them into per-pair FaultPlans and pairing arguments.
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class DeviceProfile:
    """One cohort's hardware/OS configuration for a simulated pair."""

    cohort: str
    model: str
    #: Memory tier; ``lmkd_every_ms`` is its observable consequence (mean
    #: virtual-ms between low-memory kills; ``None`` = no pressure).
    ram_tier: str
    lmkd_every_ms: Optional[float]
    #: OS/API levels on each half of the pair (skew arms the compat plane).
    phone_api: int
    wear_api: int
    #: Battery state of health; drains on the *virtual* clock.
    battery_start_pct: int
    battery_drain_pct_per_hour: float
    #: Ambient-mode duty cycle on the watch (virtual ms per full cycle;
    #: ``None`` keeps the display interactive for the whole run).
    ambient_cycle_ms: Optional[float]
    #: Bluetooth link quality; ``latency_ms`` is what pairing consumes.
    bt_quality: str
    latency_ms: float

    @property
    def compat_skew(self) -> int:
        return abs(self.phone_api - self.wear_api)


#: The built-in cohort catalogue, keyed by the name ``--cohorts`` uses.
FLEET_COHORTS: Dict[str, DeviceProfile] = {
    "flagship": DeviceProfile(
        cohort="flagship",
        model="Pixel Watch",
        ram_tier="high",
        lmkd_every_ms=None,
        phone_api=25,
        wear_api=25,
        battery_start_pct=100,
        battery_drain_pct_per_hour=3.5,
        ambient_cycle_ms=None,
        bt_quality="good",
        latency_ms=40.0,
    ),
    "budget": DeviceProfile(
        cohort="budget",
        model="Wear Lite X2",
        ram_tier="low",
        lmkd_every_ms=900_000.0,
        phone_api=25,
        wear_api=25,
        battery_start_pct=90,
        battery_drain_pct_per_hour=6.0,
        ambient_cycle_ms=120_000.0,
        bt_quality="fair",
        latency_ms=80.0,
    ),
    "legacy": DeviceProfile(
        cohort="legacy",
        model="Moto 360",
        ram_tier="mid",
        lmkd_every_ms=1_500_000.0,
        phone_api=23,
        wear_api=25,
        battery_start_pct=80,
        battery_drain_pct_per_hour=5.0,
        ambient_cycle_ms=180_000.0,
        bt_quality="poor",
        latency_ms=160.0,
    ),
    "aging": DeviceProfile(
        cohort="aging",
        model="Gear Prime",
        ram_tier="low",
        lmkd_every_ms=800_000.0,
        phone_api=24,
        wear_api=25,
        battery_start_pct=60,
        battery_drain_pct_per_hour=9.0,
        ambient_cycle_ms=60_000.0,
        bt_quality="fair",
        latency_ms=80.0,
    ),
}

#: Battery level below which the watch logs a low-battery warning and
#: parks the display in ambient mode for the rest of the run.
BATTERY_LOW_PCT = 15

#: Default population mix for ``--fleet`` runs: every cohort, equal weight.
DEFAULT_COHORT_SPEC = "flagship,budget,legacy,aging"


def parse_cohort_spec(spec: str) -> Tuple[Tuple[str, int], ...]:
    """Parse ``"flagship=2,budget,legacy=1"`` into ((name, weight), ...).

    Order is preserved (it decides the pair-index -> cohort interleave);
    a bare name means weight 1; names must exist in FLEET_COHORTS and may
    not repeat.
    """
    parsed = []
    seen = set()
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            raise ValueError(f"empty cohort entry in spec: {spec!r}")
        name, _, weight_text = chunk.partition("=")
        name = name.strip()
        if name not in FLEET_COHORTS:
            known = ", ".join(sorted(FLEET_COHORTS))
            raise ValueError(f"unknown cohort {name!r} (known: {known})")
        if name in seen:
            raise ValueError(f"cohort {name!r} listed twice in spec: {spec!r}")
        seen.add(name)
        if weight_text:
            try:
                weight = int(weight_text)
            except ValueError:
                raise ValueError(f"bad weight for cohort {name!r}: {weight_text!r}")
            if weight < 1:
                raise ValueError(f"cohort {name!r} weight must be >= 1, got {weight}")
        else:
            weight = 1
        parsed.append((name, weight))
    return tuple(parsed)


def cohort_cycle(parsed: Tuple[Tuple[str, int], ...]) -> Tuple[str, ...]:
    """Expand a parsed spec into the repeating pair-index -> cohort cycle."""
    return tuple(name for name, weight in parsed for _ in range(weight))


def profile_for_pair(parsed: Tuple[Tuple[str, int], ...], pair_index: int) -> DeviceProfile:
    """The cohort profile of pair *pair_index* under a parsed spec.

    Assignment depends only on the pair's global index, never on how pairs
    are packed into lanes or workers -- the fleet determinism invariant
    starts here.
    """
    cycle = cohort_cycle(parsed)
    return FLEET_COHORTS[cycle[pair_index % len(cycle)]]


def allocate_by_mix(mix: Dict[str, float], total: int) -> Dict[str, int]:
    """Integer allocation of *total* slots to classes by largest remainder.

    Guarantees the result sums to *total* and is deterministic (ties broken
    by class name).
    """
    if total < 0:
        raise ValueError(f"total must be >= 0, got {total}")
    weight_sum = sum(mix.values())
    raw = {name: total * weight / weight_sum for name, weight in mix.items()}
    counts = {name: int(value) for name, value in raw.items()}
    remainder = total - sum(counts.values())
    by_fraction = sorted(
        mix, key=lambda name: (-(raw[name] - counts[name]), name)
    )
    for name in by_fraction[:remainder]:
        counts[name] += 1
    return counts
