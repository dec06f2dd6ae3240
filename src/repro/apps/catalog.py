"""Corpus builders: the study's app populations, synthesised.

Three corpora are built here, mirroring the paper's three test beds:

* :func:`build_wear_corpus` -- the 46-app Android Wear population of
  Table II (2 + 11 health/fitness, 9 + 24 other; 514 activities, 398
  services), with defects assigned per the calibration quotas in
  :mod:`repro.apps.profiles` and the four hand-modelled apps (Google Fit,
  the ambient-binder watch-face app, the heart-rate app, the GridViewPager
  legacy app) in their places;
* :func:`build_phone_corpus` -- the 63 ``com.android.*`` apps (595
  activities, 218 services) used for the Android 7.1.1 comparison
  (Table IV);
* :func:`emulator_packages` -- the Watch-emulator selection used by QGJ-UI
  (all non-vendor built-ins plus the top-20 third-party apps by downloads),
  with sparse UI-event defects.

Everything is generated from a seeded RNG: the same seed reproduces the
same corpus, component for component, defect for defect.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.android.component import ComponentInfo, ComponentKind
from repro.android.device import Device
from repro.android.intent import ComponentName, launcher_filter
from repro.android.package_manager import AppCategory, AppOrigin, PackageInfo
from repro.apps import builtin as builtin_apps
from repro.apps import health as health_apps
from repro.apps.behavior import (
    BehaviorRegistry,
    BehaviorSpec,
    Outcome,
    Trigger,
    UiVulnerability,
    Vulnerability,
)
from repro.apps.profiles import (
    ALL_QUIRK_TRIGGERS,
    CAMPAIGN_TRIGGERS,
    COMPONENTS_PER_CRASH_SLOT,
    EMULATOR_TOP_THIRD_PARTY,
    EXTRA_HANG_COMPONENTS,
    HANDLED_EXCEPTION_MIX,
    HANDLED_QUIRK_FRACTION,
    HANG_APP_COMPONENTS,
    HANG_EXCEPTION_MIX,
    HEALTH_CRASH_QUOTA,
    HEART_RATE_WEDGE_DELIVERIES,
    MIN_THIRD_PARTY_DOWNLOADS,
    NOT_EXPORTED_FRACTION,
    OTHER_CRASH_QUOTA,
    PERMISSION_GUARDED_FRACTION,
    PHONE_CRASH_COMPONENTS,
    PHONE_CRASH_EXCEPTION_MIX,
    PHONE_POPULATION,
    UI_CRASH_FRACTION,
    UI_FRAGILE_APPS,
    UI_HANDLED_FRACTION,
    WEAR_CRASH_EXCEPTION_MIX,
    WEAR_POPULATION,
    allocate_by_mix,
)
from repro.wear.device import WearDevice

# ---------------------------------------------------------------------------
# Name material.
# ---------------------------------------------------------------------------

_HEALTH_THIRD_PARTY = (
    ("com.pulsetrack.wear", "PulseTrack"),          # reboot #1 (heart rate)
    ("com.stridelog.wear", "StrideLog"),            # GridViewPager legacy
    ("com.cardiowatch.wear", "CardioWatch"),        # the hang app
    ("com.runmate.wear", "RunMate"),
    ("com.fitband.wear", "FitBand"),
    ("com.stepcount.wear", "StepCount"),
    ("com.sleepwell.wear", "SleepWell"),
    ("com.yogaflow.wear", "YogaFlow"),
    ("com.cyclemate.wear", "CycleMate"),
    ("com.aquafit.wear", "AquaFit"),
    ("com.trailrun.wear", "TrailRun"),
)

_OTHER_BUILTIN = (
    (builtin_apps.AMBIENT_BINDER_PACKAGE, "Watch Faces"),  # reboot #2
    ("com.google.android.wearable.app", "Wear OS"),
    ("com.google.android.deskclock", "Clock"),
    ("com.google.android.calendar", "Calendar"),
    ("com.google.android.gm", "Gmail"),
    ("com.google.android.apps.maps", "Maps"),
    ("com.google.android.music", "Play Music"),
    ("com.google.android.contacts", "Contacts"),
    ("com.google.android.keep", "Keep"),
)

_OTHER_THIRD_PARTY = (
    ("com.chatterbox.wear", "ChatterBox"),
    ("com.skycast.wear", "SkyCast"),
    ("com.newsflash.wear", "NewsFlash"),
    ("com.wayfind.wear", "WayFind"),
    ("com.lingua.wear", "Lingua"),
    ("com.tictoc.wear", "TicToc Timer"),
    ("com.quickcalc.wear", "QuickCalc"),
    ("com.cartful.wear", "Cartful"),
    ("com.vaultpay.wear", "VaultPay"),
    ("com.tunewave.wear", "TuneWave"),
    ("com.podcatch.wear", "PodCatch"),
    ("com.airwave.wear", "AirWave Radio"),
    ("com.notely.wear", "Notely"),
    ("com.checklist.wear", "Checklist"),
    ("com.mailwing.wear", "MailWing"),
    ("com.surfview.wear", "SurfView"),
    ("com.pingme.wear", "PingMe"),
    ("com.snapgram.wear", "SnapGram"),
    ("com.buzzline.wear", "BuzzLine"),
    ("com.blockdrop.wear", "BlockDrop"),
    ("com.wordduel.wear", "WordDuel"),
    ("com.jetsetter.wear", "JetSetter"),
    ("com.hailcab.wear", "HailCab"),
    ("com.fotobox.wear", "FotoBox"),
)

_PHONE_BUILTIN_STEMS = (
    "chrome", "vending", "settings", "phone", "contacts", "mms", "email",
    "calendar", "camera", "gallery", "music", "browser", "deskclock",
    "calculator", "launcher", "systemui", "inputmethod.latin", "downloads",
    "documentsui", "printspooler", "bluetooth", "nfc", "keychain",
    "packageinstaller", "providers.contacts", "providers.calendar",
    "providers.media", "providers.downloads", "providers.telephony",
    "providers.settings", "server.telecom", "shell", "externalstorage",
    "carrierconfig", "emergency", "managedprovisioning", "storagemanager",
    "soundrecorder", "wallpaper", "voicedialer", "certinstaller",
    "captiveportallogin", "proxyhandler", "statementservice", "dreams.basic",
    "backupconfirm", "sharedstoragebackup", "vpndialogs", "cellbroadcast",
    "traceur", "stk", "bookmarkprovider", "quicksearchbox", "hotspot2",
    "companiondevicemanager", "mtp", "pacprocessor", "simappdialog",
    "theme", "wallpaperbackup", "bips", "egg", "dialer",
)

_ACTIVITY_STEMS = (
    "Main", "Settings", "Detail", "Share", "Search", "Login", "Profile",
    "History", "Summary", "Picker", "Editor", "Viewer", "Config", "About",
    "Onboarding", "Stats", "Export", "Widget", "Alert", "Browse",
)

_SERVICE_STEMS = (
    "Sync", "DataLayerListener", "Notification", "Upload", "Download",
    "Tracking", "Backup", "Metrics", "Push", "Refresh", "Cache", "Session",
    "Beacon", "Cleanup", "Wakeful",
)

_MESSAGE_TEMPLATES: Dict[str, str] = {
    "java.lang.NullPointerException": (
        "Attempt to invoke virtual method 'java.lang.String "
        "android.net.Uri.getScheme()' on a null object reference"
    ),
    "java.lang.IllegalArgumentException": "Unknown URI content scheme for received intent",
    "java.lang.IllegalStateException": "Fragment host has been destroyed before intent delivery",
    "java.lang.ClassNotFoundException": "Didn't find class in parceled extras",
    "java.lang.RuntimeException": "Failure delivering result to handler",
    "java.lang.ClassCastException": "java.lang.String cannot be cast to android.os.Bundle",
    "java.lang.UnsupportedOperationException": "This component does not support external data",
    "android.content.ActivityNotFoundException": (
        "No Activity found to handle forwarded Intent"
    ),
    "android.database.sqlite.SQLiteException": "no such table: pending_items (code 1)",
    "java.lang.IndexOutOfBoundsException": "Index: 3, Size: 0",
    "java.lang.NumberFormatException": 'Invalid long: "extra value"',
    "java.lang.SecurityException": "Caller lacks permission for requested record",
    "android.os.BadParcelableException": "ClassNotFoundException when unmarshalling extras",
    "android.os.DeadObjectException": "remote callback target is gone",
}


def _message_for(exception: str) -> str:
    return _MESSAGE_TEMPLATES.get(exception, "unexpected intent payload")


# ---------------------------------------------------------------------------
# Small deterministic helpers.
# ---------------------------------------------------------------------------


def partition(total: int, parts: int, rng: random.Random, minimum: int = 1) -> List[int]:
    """Split *total* into *parts* integers >= *minimum*, summing exactly."""
    if parts <= 0:
        raise ValueError("parts must be positive")
    if total < parts * minimum:
        raise ValueError(f"cannot give {parts} parts at least {minimum} from {total}")
    counts = [minimum] * parts
    for _ in range(total - parts * minimum):
        counts[rng.randrange(parts)] += 1
    return counts


def _assign_quota_slots(
    quota: Dict[str, int], apps: Sequence[str], rng: random.Random
) -> List[Tuple[str, str]]:
    """Assign per-campaign crash quotas to apps.

    Returns (app, campaign) slots such that each campaign gets exactly its
    quota of *distinct* apps and every app receives at least one slot.
    """
    slots: List[Tuple[str, str]] = []
    order = list(apps)
    rng.shuffle(order)
    pointer = 0
    for campaign in sorted(quota):
        count = quota[campaign]
        if count > len(order):
            raise ValueError(f"quota {count} exceeds app pool {len(order)}")
        chosen = [order[(pointer + i) % len(order)] for i in range(count)]
        pointer = (pointer + count) % len(order)
        slots.extend((app, campaign) for app in chosen)
    assigned = {app for app, _ in slots}
    missing = [app for app in order if app not in assigned]
    if missing:
        raise ValueError(
            f"quota assignment left apps without slots: {missing}; "
            "lower the crash-app count or raise quotas"
        )
    return slots


# ---------------------------------------------------------------------------
# Corpus data classes.
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class CorpusApp:
    """One generated application plus its experiment roles."""

    package: PackageInfo
    crash_campaigns: Set[str] = dataclasses.field(default_factory=set)
    roles: Set[str] = dataclasses.field(default_factory=set)


@dataclasses.dataclass
class Corpus:
    """A full generated population, ready to install on a device."""

    apps: List[CorpusApp]
    registry: BehaviorRegistry
    seed: int
    wedge_deliveries: int = HEART_RATE_WEDGE_DELIVERIES

    def packages(self) -> List[PackageInfo]:
        return [app.package for app in self.apps]

    def app(self, package_name: str) -> CorpusApp:
        for app in self.apps:
            if app.package.package == package_name:
                return app
        raise KeyError(package_name)

    def apps_with_role(self, role: str) -> List[CorpusApp]:
        return [app for app in self.apps if role in app.roles]

    def install(self, device: Device, only: Optional[Sequence[str]] = None) -> None:
        """Install every package (or just *only*) and wire the factories.

        Installing never mutates the corpus itself -- spec factories are
        registered *into the device's* activity manager and all runtime
        state lives in per-device component instances -- so one built
        corpus can be installed onto any number of devices.  The fleet
        kernel leans on both halves: a lane builds the corpus once and
        installs each pair's package slice from it.
        """
        wanted = None if only is None else set(only)
        self.registry.install(device.activity_manager)
        health_apps.register_health_factories(
            device.activity_manager, wedge_deliveries=self.wedge_deliveries
        )
        builtin_apps.google_fit_spec_key(self.registry, device.activity_manager)
        for package in self.packages():
            if wanted is None or package.package in wanted:
                device.install(package)
        if isinstance(device, WearDevice):
            for app in self.apps_with_role("ambient_binder"):
                if wanted is None or app.package.package in wanted:
                    device.ambient.expect_binder(app.package.package)

    def component_count(self) -> Tuple[int, int]:
        activities = sum(len(p.activities()) for p in self.packages())
        services = sum(len(p.services()) for p in self.packages())
        return activities, services


# ---------------------------------------------------------------------------
# Component generation.
# ---------------------------------------------------------------------------


class _ComponentFactory:
    """Generates deterministic component manifests for one corpus."""

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng
        self._counters: Dict[str, itertools.count] = {}

    def make(
        self,
        package: str,
        kind: ComponentKind,
        launcher: bool = False,
    ) -> ComponentInfo:
        stems = _ACTIVITY_STEMS if kind == ComponentKind.ACTIVITY else _SERVICE_STEMS
        counter = self._counters.setdefault(f"{package}:{kind.value}", itertools.count())
        index = next(counter)
        stem = stems[index % len(stems)]
        suffix = "" if index < len(stems) else str(index // len(stems) + 1)
        class_suffix = "Activity" if kind == ComponentKind.ACTIVITY else "Service"
        name = ComponentName(package, f"{package}.{stem}{suffix}{class_suffix}")
        if launcher:
            exported, permission, filters = True, None, [launcher_filter()]
        else:
            roll = self._rng.random()
            filters = []
            if roll < NOT_EXPORTED_FRACTION:
                exported, permission = False, None
            elif roll < NOT_EXPORTED_FRACTION + PERMISSION_GUARDED_FRACTION:
                exported, permission = True, "android.permission.BODY_SENSORS"
            else:
                exported, permission = True, None
        return ComponentInfo(
            name=name,
            kind=kind,
            exported=exported,
            permission=permission,
            intent_filters=filters,
        )

    def fill(
        self, package: str, activities: int, services: int, with_launcher: bool = True
    ) -> List[ComponentInfo]:
        """Generate *activities* + *services* components, launcher first."""
        components: List[ComponentInfo] = []
        for i in range(activities):
            components.append(
                self.make(package, ComponentKind.ACTIVITY, launcher=(with_launcher and i == 0))
            )
        for _ in range(services):
            components.append(self.make(package, ComponentKind.SERVICE))
        return components


def _injectable(components: Iterable[ComponentInfo]) -> List[ComponentInfo]:
    """Components eligible for generic defects.

    Exported, unguarded, not already hand-modelled -- and not launcher
    activities: the paper observes launchers "are also simpler and therefore
    tend to be more reliable", and QGJ-UI's benign Table V depends on it.
    """
    return [
        c
        for c in components
        if c.exported
        and c.permission is None
        and c.behavior_key is None
        and not c.is_launcher()
    ]


def _attach_vulnerability(
    registry: BehaviorRegistry,
    component: ComponentInfo,
    vulnerability: Vulnerability,
    tag: str,
) -> None:
    """Give *component* a behaviour spec (creating or extending it)."""
    if component.behavior_key is None:
        key = f"gen.{component.name.flatten_to_string()}"
        component.behavior_key = registry.register(
            key, BehaviorSpec(tag=tag, vulnerabilities=[vulnerability])
        )
    else:
        registry.get(component.behavior_key).vulnerabilities.append(vulnerability)


# ---------------------------------------------------------------------------
# The wear corpus.
# ---------------------------------------------------------------------------


def build_wear_corpus(
    seed: int = 2018,
    wedge_deliveries: int = HEART_RATE_WEDGE_DELIVERIES,
) -> Corpus:
    """Build the 46-app Android Wear population of Table II."""
    rng = random.Random(seed)
    registry = BehaviorRegistry()
    factory = _ComponentFactory(rng)
    apps: List[CorpusApp] = []

    # ---- Health/Fitness, built-in: Google Fit + Motorola Body -------------------
    cell = WEAR_POPULATION[("Health/Fitness", "Built-in")]
    act_split = partition(cell.activities, cell.apps, rng, minimum=10)
    svc_split = partition(cell.services, cell.apps, rng, minimum=5)

    fit_fill = factory.fill(
        builtin_apps.GOOGLE_FIT_PACKAGE, act_split[0] - 2, svc_split[0], with_launcher=False
    )
    google_fit = builtin_apps.build_google_fit_components(fit_fill)
    apps.append(
        CorpusApp(
            package=google_fit,
            crash_campaigns={"A", "B", "C", "D"},  # ACTION_ALL_APP fires in all four
            roles={"named:google_fit"},
        )
    )

    moto_components = factory.fill(
        builtin_apps.MOTOROLA_BODY_PACKAGE, act_split[1], svc_split[1]
    )
    motorola = PackageInfo(
        package=builtin_apps.MOTOROLA_BODY_PACKAGE,
        label="Motorola Body",
        category=AppCategory.HEALTH_FITNESS,
        origin=AppOrigin.BUILT_IN,
        components=moto_components,
        uses_sensor_manager=True,
        vendor=True,
    )
    apps.append(
        CorpusApp(package=motorola, crash_campaigns={"B", "C"}, roles={"named:motorola_body"})
    )
    # Motorola Body's workout-tracking components crash on blank and random
    # inputs (the paper names it alongside Google Fit among the failing
    # built-in core AW components).
    moto_workout, moto_history = _injectable(moto_components)[:2]
    _attach_vulnerability(
        registry,
        moto_workout,
        Vulnerability(
            trigger=Trigger.MISSING_DATA,
            exception="java.lang.NullPointerException",
            outcome=Outcome.CRASH,
            message="workout session URI was null",
            method="onStartCommand" if moto_workout.kind == ComponentKind.SERVICE else "onCreate",
            line=118,
        ),
        tag="MotoBody",
    )
    _attach_vulnerability(
        registry,
        moto_history,
        Vulnerability(
            trigger=Trigger.MALFORMED_DATA,
            exception="java.lang.IllegalArgumentException",
            outcome=Outcome.CRASH,
            message="unparseable workout record URI",
            method="onCreate",
            line=203,
        ),
        tag="MotoBody",
    )

    # ---- Health/Fitness, third-party -------------------------------------------
    cell = WEAR_POPULATION[("Health/Fitness", "Third Party")]
    act_split = partition(cell.activities, cell.apps, rng, minimum=3)
    svc_split = partition(cell.services, cell.apps, rng, minimum=2)
    for i, (pkg, label) in enumerate(_HEALTH_THIRD_PARTY):
        components = factory.fill(pkg, act_split[i], svc_split[i])
        package = PackageInfo(
            package=pkg,
            label=label,
            category=AppCategory.HEALTH_FITNESS,
            origin=AppOrigin.THIRD_PARTY,
            downloads=MIN_THIRD_PARTY_DOWNLOADS + rng.randrange(50_000_000),
            components=components,
            uses_google_fit=(pkg not in (health_apps.HEART_RATE_PACKAGE,)),
            uses_sensor_manager=(pkg == health_apps.HEART_RATE_PACKAGE),
            targets_wear2=(pkg != health_apps.GRID_PAGER_PACKAGE),
        )
        apps.append(CorpusApp(package=package))

    # Wire the hand-modelled health components.
    pulsetrack = next(a for a in apps if a.package.package == health_apps.HEART_RATE_PACKAGE)
    pulsetrack.roles.add("reboot_sensor")
    hr_service = pulsetrack.package.services()[0]
    hr_service.behavior_key = "health.pulsetrack.tracker"
    hr_service.exported, hr_service.permission = True, None
    hr_activity = pulsetrack.package.activities()[0]
    hr_activity.behavior_key = "health.pulsetrack.display"

    stridelog = next(a for a in apps if a.package.package == health_apps.GRID_PAGER_PACKAGE)
    stridelog.roles.add("named:grid_pager")
    stridelog.crash_campaigns.add("A")
    grid_activity = _injectable(stridelog.package.activities())[0]
    grid_activity.behavior_key = "health.stridelog.gridpager"

    cardiowatch = next(a for a in apps if a.package.package == "com.cardiowatch.wear")
    cardiowatch.roles.add("hang")

    # ---- Not Health/Fitness, built-in -------------------------------------------
    cell = WEAR_POPULATION[("Not Health/Fitness", "Built-in")]
    act_split = partition(cell.activities, cell.apps, rng, minimum=6)
    svc_split = partition(cell.services, cell.apps, rng, minimum=6)
    for i, (pkg, label) in enumerate(_OTHER_BUILTIN):
        components = factory.fill(pkg, act_split[i], svc_split[i])
        package = PackageInfo(
            package=pkg,
            label=label,
            category=AppCategory.OTHER,
            origin=AppOrigin.BUILT_IN,
            components=components,
        )
        apps.append(CorpusApp(package=package))

    watchface = next(
        a for a in apps if a.package.package == builtin_apps.AMBIENT_BINDER_PACKAGE
    )
    watchface.roles.add("ambient_binder")
    config_key, tile_key, launcher_key = builtin_apps.ambient_binder_specs(registry)
    face_activity = _injectable(watchface.package.activities())[0]
    face_activity.behavior_key = config_key
    tile_service = _injectable(watchface.package.services())[0]
    tile_service.behavior_key = tile_key
    watchface_launcher = watchface.package.launcher_activity()
    watchface_launcher.behavior_key = launcher_key

    # ---- Not Health/Fitness, third-party -----------------------------------------
    cell = WEAR_POPULATION[("Not Health/Fitness", "Third Party")]
    act_split = partition(cell.activities, cell.apps, rng, minimum=3)
    svc_split = partition(cell.services, cell.apps, rng, minimum=2)
    for i, (pkg, label) in enumerate(_OTHER_THIRD_PARTY):
        components = factory.fill(pkg, act_split[i], svc_split[i])
        package = PackageInfo(
            package=pkg,
            label=label,
            category=AppCategory.OTHER,
            origin=AppOrigin.THIRD_PARTY,
            downloads=MIN_THIRD_PARTY_DOWNLOADS + rng.randrange(200_000_000),
            components=components,
        )
        apps.append(CorpusApp(package=package))

    _assign_wear_defects(apps, registry, rng)
    return Corpus(
        apps=apps, registry=registry, seed=seed, wedge_deliveries=wedge_deliveries
    )


def _assign_wear_defects(
    apps: List[CorpusApp], registry: BehaviorRegistry, rng: random.Random
) -> None:
    """Distribute crash / hang / handled defects per the calibration quotas."""
    by_package = {app.package.package: app for app in apps}

    # -- crash apps per Table III quotas ----------------------------------------
    health_crashers = [
        "com.runmate.wear",       # h3-style
        "com.fitband.wear",
        "com.stepcount.wear",
        "com.sleepwell.wear",
        "com.yogaflow.wear",
    ]
    # Google Fit / Motorola Body / StrideLog already carry named defects and
    # campaign sets; quotas below cover the *generic* health crashers.
    generic_health_quota = {
        campaign: HEALTH_CRASH_QUOTA[campaign]
        - sum(
            1
            for app in apps
            if campaign in app.crash_campaigns
        )
        for campaign in HEALTH_CRASH_QUOTA
    }
    for campaign, value in generic_health_quota.items():
        if value < 0:
            raise ValueError(f"named apps overflow health quota for {campaign}")
    health_slots = _assign_quota_slots(generic_health_quota, health_crashers, rng)

    other_builtin_crashers = [
        "com.google.android.wearable.app",
        "com.google.android.deskclock",
        "com.google.android.calendar",
        "com.google.android.gm",
    ]
    other_third_crashers = [
        "com.chatterbox.wear",
        "com.skycast.wear",
        "com.newsflash.wear",
        "com.wayfind.wear",
        "com.tictoc.wear",
        "com.vaultpay.wear",
        "com.tunewave.wear",
        "com.notely.wear",
        "com.surfview.wear",
        "com.snapgram.wear",
    ]
    other_slots = _assign_quota_slots(
        OTHER_CRASH_QUOTA, other_builtin_crashers + other_third_crashers, rng
    )

    # -- exception classes for the generic crash components -----------------------
    slots = health_slots + other_slots
    component_budget = [rng.randint(*COMPONENTS_PER_CRASH_SLOT) for _ in slots]
    exception_pool: List[str] = []
    for name, count in sorted(
        allocate_by_mix(WEAR_CRASH_EXCEPTION_MIX, sum(component_budget)).items()
    ):
        exception_pool.extend([name] * count)
    rng.shuffle(exception_pool)

    used_components: Set[str] = set()
    for (package_name, campaign), budget in zip(slots, component_budget):
        app = by_package[package_name]
        app.crash_campaigns.add(campaign)
        fresh = [
            c
            for c in _injectable(app.package.components)
            if c.name.flatten_to_string() not in used_components
        ]
        rng.shuffle(fresh)
        if not fresh:
            # Small app whose components are all vulnerable already: stack
            # this campaign's defect onto an existing one (real apps have
            # several bugs in one component too).
            fresh = [
                c
                for c in app.package.components
                if c.behavior_key is not None and c.behavior_key.startswith("gen.")
            ][:1]
        for component in fresh[:budget]:
            exception = exception_pool.pop()
            trigger = rng.choice(CAMPAIGN_TRIGGERS[campaign])
            _attach_vulnerability(
                registry,
                component,
                Vulnerability(
                    trigger=trigger,
                    exception=exception,
                    outcome=Outcome.CRASH,
                    message=_message_for(exception),
                    method="onCreate"
                    if component.kind == ComponentKind.ACTIVITY
                    else "onStartCommand",
                    line=40 + rng.randrange(400),
                ),
                tag=app.package.label.replace(" ", ""),
            )
            used_components.add(component.name.flatten_to_string())

    # -- the dedicated hang app (Table III: health-only, campaigns A/C/D) ---------
    hang_app = by_package["com.cardiowatch.wear"]
    hang_triggers = (
        Trigger.ACTION_DATA_MISMATCH,
        Trigger.MALFORMED_DATA,
        Trigger.UNEXPECTED_EXTRAS,
    )
    hang_pool: List[str] = []
    for name, count in sorted(
        allocate_by_mix(HANG_EXCEPTION_MIX, HANG_APP_COMPONENTS + EXTRA_HANG_COMPONENTS).items()
    ):
        hang_pool.extend([name] * count)
    rng.shuffle(hang_pool)
    hang_components = _injectable(hang_app.package.components)[:HANG_APP_COMPONENTS]
    for i, component in enumerate(hang_components):
        exception = hang_pool.pop()
        _attach_vulnerability(
            registry,
            component,
            Vulnerability(
                trigger=hang_triggers[i % len(hang_triggers)],
                exception=exception,
                outcome=Outcome.HANG,
                message=_message_for(exception),
                method="onStartCommand",
                line=60 + i,
            ),
            tag="CardioWatch",
        )
        used_components.add(component.name.flatten_to_string())

    # -- extra hang components inside apps that also crash (keeps Table III) ------
    extra_hang_hosts = (
        (builtin_apps.GOOGLE_FIT_PACKAGE, Trigger.ACTION_DATA_MISMATCH),   # crash app in A
        ("com.fitband.wear", None),   # trigger chosen from its crash campaigns
        ("com.stepcount.wear", None),
    )
    for package_name, forced_trigger in extra_hang_hosts[:EXTRA_HANG_COMPONENTS]:
        app = by_package[package_name]
        trigger = forced_trigger
        if trigger is None:
            campaign = sorted(app.crash_campaigns)[0]
            trigger = CAMPAIGN_TRIGGERS[campaign][0]
        candidates = [
            c
            for c in _injectable(app.package.components)
            if c.name.flatten_to_string() not in used_components
        ]
        if not candidates:
            continue
        component = candidates[0]
        exception = hang_pool.pop()
        _attach_vulnerability(
            registry,
            component,
            Vulnerability(
                trigger=trigger,
                exception=exception,
                outcome=Outcome.HANG,
                message=_message_for(exception),
                method="onStartCommand",
                line=77,
            ),
            tag=app.package.label.replace(" ", ""),
        )
        used_components.add(component.name.flatten_to_string())

    _assign_handled_quirks(apps, registry, rng, used_components)


def _assign_handled_quirks(
    apps: List[CorpusApp],
    registry: BehaviorRegistry,
    rng: random.Random,
    used_components: Set[str],
) -> None:
    """Sprinkle caught-and-logged exception quirks over clean components.

    The two reboot-scenario apps are skipped entirely: their post-mortems
    (Section IV-B) hinge on exactly which exception classes appear in the
    pre-reboot log window, so their behaviour stays fully hand-modelled.
    """
    reboot_roles = {"reboot_sensor", "ambient_binder"}
    clean = [
        c
        for app in apps
        if not (app.roles & reboot_roles)
        for c in _injectable(app.package.components)
        if c.name.flatten_to_string() not in used_components
    ]
    quirk_count = int(len(clean) * HANDLED_QUIRK_FRACTION)
    rng.shuffle(clean)
    quirk_pool: List[str] = []
    for name, count in sorted(allocate_by_mix(HANDLED_EXCEPTION_MIX, quirk_count).items()):
        quirk_pool.extend([name] * count)
    rng.shuffle(quirk_pool)
    for component in clean[:quirk_count]:
        exception = quirk_pool.pop()
        _attach_vulnerability(
            registry,
            component,
            Vulnerability(
                trigger=rng.choice(ALL_QUIRK_TRIGGERS),
                exception=exception,
                outcome=Outcome.HANDLED,
                message=_message_for(exception),
                method="validateIntent",
                line=30 + rng.randrange(60),
            ),
            tag="InputValidation",
        )


# ---------------------------------------------------------------------------
# The phone corpus (Table IV).
# ---------------------------------------------------------------------------


def build_phone_corpus(seed: int = 711) -> Corpus:
    """Build the 63 ``com.android.*`` apps of the phone comparison."""
    rng = random.Random(seed)
    registry = BehaviorRegistry()
    factory = _ComponentFactory(rng)
    apps: List[CorpusApp] = []

    act_split = partition(PHONE_POPULATION.activities, PHONE_POPULATION.apps, rng, minimum=2)
    svc_split = partition(PHONE_POPULATION.services, PHONE_POPULATION.apps, rng, minimum=1)
    for i in range(PHONE_POPULATION.apps):
        stem = _PHONE_BUILTIN_STEMS[i]
        pkg = f"com.android.{stem}"
        components = factory.fill(pkg, act_split[i], svc_split[i])
        package = PackageInfo(
            package=pkg,
            label=stem.replace(".", " ").title(),
            category=AppCategory.OTHER,
            origin=AppOrigin.BUILT_IN,
            components=components,
        )
        apps.append(CorpusApp(package=package))

    # -- crash components straight from the Table IV exception counts ------------
    exception_pool: List[str] = []
    for name, count in sorted(
        allocate_by_mix(PHONE_CRASH_EXCEPTION_MIX, PHONE_CRASH_COMPONENTS).items()
    ):
        exception_pool.extend([name] * count)
    rng.shuffle(exception_pool)

    campaign_cycle = itertools.cycle(sorted(CAMPAIGN_TRIGGERS))
    injectable = [c for app in apps for c in _injectable(app.package.components)]
    rng.shuffle(injectable)
    if len(injectable) < PHONE_CRASH_COMPONENTS:
        raise ValueError("phone corpus too small for its crash-component quota")
    used: Set[str] = set()
    app_by_pkg = {app.package.package: app for app in apps}
    for component in injectable[:PHONE_CRASH_COMPONENTS]:
        exception = exception_pool.pop()
        campaign = next(campaign_cycle)
        trigger = rng.choice(CAMPAIGN_TRIGGERS[campaign])
        _attach_vulnerability(
            registry,
            component,
            Vulnerability(
                trigger=trigger,
                exception=exception,
                outcome=Outcome.CRASH,
                message=_message_for(exception),
                method="onCreate"
                if component.kind == ComponentKind.ACTIVITY
                else "onStartCommand",
                line=40 + rng.randrange(400),
            ),
            tag="AndroidApp",
        )
        used.add(component.name.flatten_to_string())
        app_by_pkg[component.package].crash_campaigns.add(campaign)

    _assign_handled_quirks(apps, registry, rng, used)
    return Corpus(apps=apps, registry=registry, seed=seed)


# ---------------------------------------------------------------------------
# The emulator selection for QGJ-UI (Table V).
# ---------------------------------------------------------------------------


def emulator_packages(corpus: Corpus) -> List[PackageInfo]:
    """Select and UI-harden the Watch-emulator population.

    Mirrors Section III-E: "we installed on the emulator all the built-in
    apps and the top 20 of the most popular third-party apps" -- built-ins
    minus vendor extensions (the emulator has no Motorola layer).  Launcher
    activities receive sparse UI-event quirks: a small HANDLED fraction on
    every app, plus rare CRASH defects on a few fragile ones, calibrated to
    Table V's 3.6% exceptions / 0.05% crash rates (the constants live in
    :mod:`repro.apps.profiles`).
    """
    builtins = [
        app.package
        for app in corpus.apps
        if app.package.is_built_in and not app.package.vendor
    ]
    third_party = sorted(
        (app.package for app in corpus.apps if not app.package.is_built_in),
        key=lambda p: -p.downloads,
    )[:EMULATOR_TOP_THIRD_PARTY]
    selection = builtins + third_party

    fragile = 0
    for package in selection:
        launcher = package.launcher_activity()
        if launcher is None:
            continue
        spec = _ui_spec_for(corpus.registry, launcher, package.label)
        spec.ui_vulnerabilities.append(
            UiVulnerability(
                kinds=("tap", "swipe", "text", "keyevent", "trackball"),
                exception="java.lang.IllegalArgumentException",
                outcome=Outcome.HANDLED,
                fire_fraction=UI_HANDLED_FRACTION,
                message="pointer event outside view bounds",
            )
        )
        if fragile < UI_FRAGILE_APPS and not package.is_built_in:
            spec.ui_vulnerabilities.append(
                UiVulnerability(
                    kinds=("tap",),
                    exception="java.lang.NullPointerException",
                    outcome=Outcome.CRASH,
                    fire_fraction=UI_CRASH_FRACTION,
                    message="touch target view was recycled",
                    method="onClick",
                    line=302,
                )
            )
            fragile += 1
    return selection


def _ui_spec_for(
    registry: BehaviorRegistry, component: ComponentInfo, label: str
) -> BehaviorSpec:
    if component.behavior_key is None:
        key = f"ui.{component.name.flatten_to_string()}"
        component.behavior_key = registry.register(
            key, BehaviorSpec(tag=label.replace(" ", ""))
        )
    return registry.get(component.behavior_key)
