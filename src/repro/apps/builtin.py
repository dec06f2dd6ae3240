"""Hand-modelled built-in apps with the paper's named defects.

Two of the study's concrete findings involve built-in (Google / vendor)
applications, so those apps get real handler code rather than generic
behaviour specs:

* **Google Fit** -- "a core AW component, reported a crash because an intent
  ``{act=ACTION_ALL_APP}`` was sent without the expected message
  (Complication Provider)".  :class:`GoogleFitAllAppActivity` implements the
  defect: it feeds whatever the extra holds straight into
  ``ComplicationProviderInfo.from_extra`` without an absence check, so a
  missing or garbage extra raises ``IllegalArgumentException`` out of
  ``onCreate`` -- an *input validation implemented only partially*, in the
  paper's words.

* **The ambient-binder app** (a built-in watch-face package) -- the app at
  the centre of reboot #2.  Its components are ordinary behaviour-spec
  components that crash on campaign D's random extras; what makes it special
  is that it is *registered as an expected Ambient binder*, so its crash
  loop starves ambient binding and escalates through the system server's
  SIGSEGV path.  The builder here wires that registration.
"""

from __future__ import annotations

from typing import List

from repro.android.component import Activity, ComponentInfo, ComponentKind
from repro.android.intent import ComponentName, Intent, launcher_filter
from repro.android.package_manager import AppCategory, AppOrigin, PackageInfo
from repro.apps.behavior import (
    BehaviorRegistry,
    BehaviorSpec,
    Outcome,
    Trigger,
    Vulnerability,
)
from repro.wear.complications import (
    ACTION_ALL_APP,
    EXTRA_PROVIDER_INFO,
    ComplicationProviderInfo,
)

GOOGLE_FIT_PACKAGE = "com.google.android.apps.fitness"
MOTOROLA_BODY_PACKAGE = "com.motorola.omega.body"
AMBIENT_BINDER_PACKAGE = "com.google.android.wearable.watchface"


class GoogleFitAllAppActivity(Activity):
    """Google Fit's complication browser, with the paper's IAE defect."""

    def on_handle_intent(self, intent: Intent, phase: str) -> float:
        if intent.action == ACTION_ALL_APP:
            # Defective: no absence check before parsing.  A missing extra
            # arrives as None; campaign D's random extras arrive as garbage.
            # Either way from_extra raises IllegalArgumentException, which
            # this handler does not catch.
            provider = ComplicationProviderInfo.from_extra(
                intent.get_extra(EXTRA_PROVIDER_INFO)
            )
            self.context.log_i("FitComplications", f"browsing apps for {provider.provider}")
        return 1.5


def google_fit_spec_key(registry: BehaviorRegistry, activity_manager) -> str:
    """Register the Google Fit activity factory; returns its behavior key."""
    key = "builtin.googlefit.allapp"
    activity_manager.register_factory(key, GoogleFitAllAppActivity)
    return key


def ambient_binder_specs(registry: BehaviorRegistry) -> List[str]:
    """Register the two crash-looping components of the ambient-binder app.

    Component 1 dies in ``onCreate`` with the framework's RuntimeException
    wrapper around an NPE ("inability to start an Activity because of
    missing data in the malformed intent"); component 2 dies with an
    IllegalStateException about its ambient session.  Together with the
    DeadObjectException from reboot #1's sensor post-mortem these are the
    three classes the paper found "equally culpable" for reboots.
    """
    config_key = registry.register(
        "builtin.ambient.faceconfig",
        BehaviorSpec(
            tag="WatchFaceConfig",
            vulnerabilities=[
                Vulnerability(
                    trigger=Trigger.UNEXPECTED_EXTRAS,
                    exception="java.lang.NullPointerException",
                    outcome=Outcome.CRASH,
                    message=(
                        "Attempt to invoke virtual method "
                        "'java.lang.String android.os.Bundle.getString(java.lang.String)' "
                        "on a null object reference"
                    ),
                    method="onCreate",
                    line=88,
                    wrap_in_runtime=True,
                )
            ],
        ),
    )
    launcher_key = registry.register(
        "builtin.ambient.launcher",
        BehaviorSpec(
            tag="WatchFacePicker",
            vulnerabilities=[
                # The picker *catches* the malformed-extras NPE and logs it.
                # During reboot #2 these warnings sit in the escalation
                # window, putting a second watch-face component among the
                # implicated ones without adding a new exception class.
                Vulnerability(
                    trigger=Trigger.UNEXPECTED_EXTRAS,
                    exception="java.lang.NullPointerException",
                    outcome=Outcome.HANDLED,
                    message="null style bundle in picker request",
                    method="applyStyle",
                    line=64,
                )
            ],
        ),
    )
    tile_key = registry.register(
        "builtin.ambient.tileservice",
        BehaviorSpec(
            tag="AmbientTile",
            vulnerabilities=[
                Vulnerability(
                    trigger=Trigger.EXTRA_TYPE_CONFUSION,
                    exception="java.lang.IllegalStateException",
                    outcome=Outcome.CRASH,
                    message="ambient session not attached; cannot bind AmbientService",
                    method="onStartCommand",
                    line=141,
                )
            ],
        ),
    )
    return [config_key, tile_key, launcher_key]


def build_google_fit_components(extra_components: List[ComponentInfo]) -> PackageInfo:
    """Assemble the Google Fit package around its defective activity.

    *extra_components* are the generically generated filler components that
    bring the package to its share of Table II's built-in health counts.
    """
    special = ComponentInfo(
        name=ComponentName(GOOGLE_FIT_PACKAGE, GOOGLE_FIT_PACKAGE + ".ComplicationsAllAppActivity"),
        kind=ComponentKind.ACTIVITY,
        exported=True,
        behavior_key="builtin.googlefit.allapp",
    )
    launcher = ComponentInfo(
        name=ComponentName(GOOGLE_FIT_PACKAGE, GOOGLE_FIT_PACKAGE + ".FitHomeActivity"),
        kind=ComponentKind.ACTIVITY,
        exported=True,
        intent_filters=[launcher_filter()],
    )
    return PackageInfo(
        package=GOOGLE_FIT_PACKAGE,
        label="Google Fit",
        category=AppCategory.HEALTH_FITNESS,
        origin=AppOrigin.BUILT_IN,
        components=[special, launcher] + extra_components,
        uses_google_fit=True,
        requested_permissions=[
            "android.permission.BODY_SENSORS",
            "android.permission.ACTIVITY_RECOGNITION",
        ],
    )
