"""Input-validation behaviour models for the synthetic app corpus.

The study's subjects were real Play Store apps; ours are synthetic, so each
component carries a *behaviour model* describing how its (imaginary) code
validates incoming intents.  The model is mechanistic, not statistical: a
component reacts to concrete *features* of the intent it receives --

===================  ========================================================
Trigger              Fires when the delivered intent has …
===================  ========================================================
ACTION_DATA_MISMATCH a known action and a known data scheme that are not a
                     valid pair (campaign A's signature input)
MISSING_ACTION       data but no action (campaign B)
MISSING_DATA         an action but no data (campaign B)
UNKNOWN_ACTION       an action string outside the platform vocabulary
                     (campaign C)
MALFORMED_DATA       a data field that does not parse to a known scheme
                     (campaign C)
UNEXPECTED_EXTRAS    extras the component did not declare (campaign D)
EXTRA_TYPE_CONFUSION an extra whose value type defeats a cast (campaign D)
ANY_INTENT           anything at all
===================  ========================================================

so campaign→failure relationships *emerge* from intent content rather than
being looked up.  A matching :class:`Vulnerability` produces one of the
study's behaviours: an **uncaught throwable** (crash), a **blocked handler**
(ANR/hang), or a **caught-and-logged exception** (the "no effect, but an
exception was thrown and handled" cases that make up ~10% of the no-effect
bar in Fig. 3b).

Everything is deterministic: a vulnerability can be gated on a minimum
number of deliveries to the live instance (stateful bugs) or on a stable
hash of the intent signature (flaky-looking bugs), but never on global RNG.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.android.actions import is_compatible, is_known_action, is_known_scheme
from repro.android.component import Activity, BroadcastReceiver, ComponentInfo, Service
from repro.android.intent import Intent
from repro.android.jtypes import Throwable, frame, throwable_from_name

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.android.context import Context

#: Handler cost used to model a blocked main thread (well past the 5 s ANR
#: window).
BLOCK_MS = 9000.0


class Trigger(enum.Enum):
    ACTION_DATA_MISMATCH = "action_data_mismatch"
    MISSING_ACTION = "missing_action"
    MISSING_DATA = "missing_data"
    UNKNOWN_ACTION = "unknown_action"
    MALFORMED_DATA = "malformed_data"
    UNEXPECTED_EXTRAS = "unexpected_extras"
    EXTRA_TYPE_CONFUSION = "extra_type_confusion"
    ANY_INTENT = "any_intent"


class Outcome(enum.Enum):
    #: Raise the throwable out of the handler (uncaught → process crash).
    CRASH = "crash"
    #: Block the handler long enough to trip the ANR watchdog.
    HANG = "hang"
    #: Catch the exception internally and log it (no user-visible failure).
    HANDLED = "handled"


def trigger_matches(trigger: Trigger, intent: Intent, deliveries: int) -> bool:
    """Does *intent* exhibit the feature *trigger* keys on?"""
    action = intent.action
    data = intent.data
    if trigger == Trigger.ANY_INTENT:
        return True
    if trigger == Trigger.ACTION_DATA_MISMATCH:
        return (
            is_known_action(action)
            and data is not None
            and is_known_scheme(data.scheme)
            and not is_compatible(action, data)
        )
    if trigger == Trigger.MISSING_ACTION:
        return action is None and data is not None
    if trigger == Trigger.MISSING_DATA:
        return action is not None and data is None and not intent.extras
    if trigger == Trigger.UNKNOWN_ACTION:
        return action is not None and not is_known_action(action)
    if trigger == Trigger.MALFORMED_DATA:
        return data is not None and not is_known_scheme(data.scheme)
    if trigger == Trigger.UNEXPECTED_EXTRAS:
        return bool(intent.extras)
    if trigger == Trigger.EXTRA_TYPE_CONFUSION:
        return any(not isinstance(v, str) for v in intent.extras.values())
    raise ValueError(f"unknown trigger: {trigger}")


def stable_fraction(*parts: object) -> float:
    """Deterministic pseudo-random fraction in [0, 1) from *parts*."""
    digest = hashlib.sha256("|".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


@dataclasses.dataclass(frozen=True)
class Vulnerability:
    """One latent defect in a component's intent handling."""

    trigger: Trigger
    exception: str                 # Java class name
    outcome: Outcome
    message: str = ""
    method: str = "onHandleIntent"
    line: int = 73
    #: The defect only manifests from the Nth delivery to the same live
    #: instance onward (stateful bugs; 0 = immediately).
    min_deliveries: int = 0
    #: Deterministic gate: the defect fires only for this fraction of
    #: distinct intent signatures (1.0 = every matching intent).
    fire_fraction: float = 1.0
    #: Wrap the thrown exception in a RuntimeException, as the framework
    #: does when a lifecycle callback dies ("Unable to start activity …").
    wrap_in_runtime: bool = False

    def fires_on(self, info: ComponentInfo, intent: Intent, deliveries: int) -> bool:
        if deliveries < self.min_deliveries:
            return False
        if not trigger_matches(self.trigger, intent, deliveries):
            return False
        if self.fire_fraction >= 1.0:
            return True
        gate = stable_fraction(
            info.name.flatten_to_string(), self.exception, intent.signature()
        )
        return gate < self.fire_fraction

    def build_throwable(self, info: ComponentInfo) -> Throwable:
        exc = throwable_from_name(self.exception, self.message or None)
        exc.frames = [frame(info.name.class_name, self.method, self.line)]
        if self.wrap_in_runtime:
            wrapper = throwable_from_name(
                "java.lang.RuntimeException",
                "Unable to start activity ComponentInfo{"
                f"{info.name.flatten_to_string()}"
                "}: " + exc.java_str(),
            )
            wrapper.frames = [
                frame("android.app.ActivityThread", "performLaunchActivity", 2778)
            ]
            wrapper.cause = exc
            return wrapper
        return exc


@dataclasses.dataclass(frozen=True)
class UiVulnerability:
    """A defect in a *UI event* handler (tap, key, swipe, text, …).

    The study found UI handlers dramatically more robust than intent
    handlers (Table V: 0.05% crashes for semi-valid events, none for
    random), so these are sparse and mostly :attr:`Outcome.HANDLED`.  The
    gate is a stable hash over the concrete event, making a given fraction
    of distinct events trigger, deterministically.
    """

    kinds: tuple                    # event kinds this defect listens to
    exception: str
    outcome: Outcome
    fire_fraction: float = 0.05
    message: str = ""
    method: str = "onTouchEvent"
    line: int = 211

    def fires_on(self, info: ComponentInfo, kind: str, params: dict) -> bool:
        if kind not in self.kinds:
            return False
        digest = stable_fraction(
            info.name.flatten_to_string(), self.exception, kind, sorted(params.items())
        )
        return digest < self.fire_fraction

    def build_throwable(self, info: ComponentInfo) -> Throwable:
        exc = throwable_from_name(self.exception, self.message or None)
        exc.frames = [frame(info.name.class_name, self.method, self.line)]
        return exc


@dataclasses.dataclass
class BehaviorSpec:
    """Full behaviour description for one component."""

    vulnerabilities: List[Vulnerability] = dataclasses.field(default_factory=list)
    ui_vulnerabilities: List[UiVulnerability] = dataclasses.field(default_factory=list)
    #: Base handler cost for well-handled intents.
    base_cost_ms: float = 1.0
    #: Log tag used for handled exceptions.
    tag: str = "App"

    def first_match(
        self, info: ComponentInfo, intent: Intent, deliveries: int
    ) -> Optional[Vulnerability]:
        for vuln in self.vulnerabilities:
            if vuln.fires_on(info, intent, deliveries):
                return vuln
        return None


class _ModeledMixin:
    """Shared intent-handling logic for modeled activities and services."""

    spec: BehaviorSpec
    info: ComponentInfo
    context: "Context"

    def _init_model(self, spec: BehaviorSpec) -> None:
        self.spec = spec
        self.deliveries = 0

    def _handle(self, intent: Intent, phase: str) -> float:
        self.deliveries += 1
        vuln = self.spec.first_match(self.info, intent, self.deliveries)
        if vuln is None:
            return self.spec.base_cost_ms
        if vuln.outcome == Outcome.CRASH:
            raise vuln.build_throwable(self.info)
        if vuln.outcome == Outcome.HANG:
            # Log the precipitating exception, then block: this is the
            # temporal chain the root-cause analysis keys on (the ANR entry
            # follows an app-logged exception).
            self.context.logcat.handled_exception(
                self.spec.tag,
                self.context._pid(),
                vuln.build_throwable(self.info),
                context=f"slow path in {phase}",
            )
            return BLOCK_MS
        # HANDLED: the app caught its own exception and logged it.
        self.context.logcat.handled_exception(
            self.spec.tag,
            self.context._pid(),
            vuln.build_throwable(self.info),
            context=f"rejected intent in {phase}",
        )
        return self.spec.base_cost_ms

    def _handle_ui(self, kind: str, params: dict) -> float:
        for vuln in self.spec.ui_vulnerabilities:
            if not vuln.fires_on(self.info, kind, params):
                continue
            if vuln.outcome == Outcome.CRASH:
                raise vuln.build_throwable(self.info)
            self.context.logcat.handled_exception(
                self.spec.tag,
                self.context._pid(),
                vuln.build_throwable(self.info),
                context=f"rejected ui event {kind}",
            )
            return self.spec.base_cost_ms
        return 0.5


class ModeledActivity(Activity, _ModeledMixin):
    """An activity whose intent handling follows a :class:`BehaviorSpec`."""

    def __init__(self, info: ComponentInfo, context: "Context", spec: BehaviorSpec) -> None:
        super().__init__(info, context)
        self._init_model(spec)

    def on_handle_intent(self, intent: Intent, phase: str) -> float:
        return self._handle(intent, phase)

    def on_ui_event(self, kind: str, **params: object) -> float:
        return self._handle_ui(kind, params)


class ModeledService(Service, _ModeledMixin):
    """A service whose intent handling follows a :class:`BehaviorSpec`."""

    def __init__(self, info: ComponentInfo, context: "Context", spec: BehaviorSpec) -> None:
        super().__init__(info, context)
        self._init_model(spec)

    def on_handle_intent(self, intent: Intent, phase: str) -> float:
        return self._handle(intent, phase)


class ModeledReceiver(BroadcastReceiver, _ModeledMixin):
    """A broadcast receiver whose handling follows a :class:`BehaviorSpec`."""

    def __init__(self, info: ComponentInfo, context: "Context", spec: BehaviorSpec) -> None:
        super().__init__(info, context)
        self._init_model(spec)

    def on_handle_intent(self, intent: Intent, phase: str) -> float:
        return self._handle(intent, phase)


class BehaviorRegistry:
    """Maps manifest ``behavior_key`` strings to :class:`BehaviorSpec`.

    The registry is installed into a device's activity manager once; after
    that, any component whose manifest names a registered key is
    instantiated with the corresponding model.
    """

    def __init__(self) -> None:
        self._specs: dict[str, BehaviorSpec] = {}

    def register(self, key: str, spec: BehaviorSpec) -> str:
        if key in self._specs:
            raise ValueError(f"behavior key already registered: {key}")
        self._specs[key] = spec
        return key

    def get(self, key: str) -> BehaviorSpec:
        return self._specs[key]

    def keys(self) -> Sequence[str]:
        return tuple(self._specs)

    def install(self, activity_manager) -> None:
        """Register component factories for every known key."""
        for key, spec in self._specs.items():
            activity_manager.register_factory(key, SpecFactory(spec))

    def __len__(self) -> int:
        return len(self._specs)


class SpecFactory:
    """Picklable component factory bound to one :class:`BehaviorSpec`.

    A class (rather than a closure) so activity managers holding factories
    stay picklable.
    """

    def __init__(self, spec: BehaviorSpec) -> None:
        self.spec = spec

    def __call__(self, info: ComponentInfo, context: "Context"):
        from repro.android.component import ComponentKind

        if info.kind == ComponentKind.ACTIVITY:
            return ModeledActivity(info, context, self.spec)
        if info.kind == ComponentKind.RECEIVER:
            return ModeledReceiver(info, context, self.spec)
        return ModeledService(info, context, self.spec)
