"""The QGJ Fuzzer library.

"This is the Java library, which contains the main functions needed to
inject intents on the target device.  Since intents have to be sent from the
target device, this library is shared by QGJ Mobile and QGJ wearable."

The library runs a :class:`~repro.qgj.campaigns.Campaign` against one
component, one app, or the whole device, with the paper's pacing: 100 ms
between successive intents and an extra 250 ms after every 100 intents
("empirically determined … to ensure the device is not overloaded").  QGJ is
an *unprivileged* app -- it sends through the public startActivity /
startService entry points and observes only what those surface
(``SecurityException``, ``ActivityNotFoundException``) plus the dispatch
telemetry; behavioural classification happens later from logcat.

A device reboot mid-campaign aborts the rest of the *current app* (the
session to the device is lost; the operator resumes with the next app) --
which is also why each observed reboot appears exactly once per run.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time
from typing import Callable, Generator, Iterable, List, Optional, Sequence, Tuple

from repro.android.activity_manager import DispatchResult
from repro.android.component import ComponentInfo, ComponentKind
from repro.android.device import Device
from repro.android.jtypes import ActivityNotFoundException, SecurityException
from repro.faults.errors import TRANSIENT_ERRORS, CompatMismatchError
from repro.faults.journal import KillSwitch
from repro.faults.quarantine import CircuitBreaker
from repro.faults.retry import RetryPolicy
from repro.qgj.campaigns import Campaign, FuzzIntent, generate
from repro.qgj.results import AppRunResult, ComponentRunResult, FuzzSummary
from repro.telemetry.metrics import INTENTS_INJECTED
from repro.telemetry.record import CounterSite

#: Package identity under which QGJ injects (unprivileged, as in the paper).
QGJ_WEAR_PACKAGE = "com.qgj.wear"
QGJ_MOBILE_PACKAGE = "com.qgj.mobile"

#: Pacing, from Section III-D.
INTENT_DELAY_MS = 100.0
BATCH_DELAY_MS = 250.0
BATCH_SIZE = 100


@dataclasses.dataclass(frozen=True)
class FuzzConfig:
    """Tunable knobs for one fuzzing run.

    ``stride`` subsamples every campaign uniformly; ``strides`` overrides it
    per campaign.  The quick configuration's strides are chosen so that the
    *structure* of each campaign survives subsampling: campaign A's stride
    of 12 keeps exactly one data URI per action (every action still reaches
    every component), and campaign C's stride of 2 keeps at least one of
    each action's three randomised rounds.
    """

    #: Default subsampling stride over each campaign's generator (1 = paper scale).
    stride: int = 1
    #: Per-campaign stride overrides.
    strides: Optional[dict] = None
    #: Hard cap per component (None = the campaign's natural size).
    max_intents_per_component: Optional[int] = None
    seed: int = 0
    intent_delay_ms: float = INTENT_DELAY_MS
    batch_delay_ms: float = BATCH_DELAY_MS
    batch_size: int = BATCH_SIZE

    def __post_init__(self) -> None:
        if self.stride < 1:
            raise ValueError(f"stride must be >= 1, got {self.stride}")
        if self.strides is not None:
            for campaign, stride in self.strides.items():
                if stride < 1:
                    raise ValueError(f"stride for {campaign} must be >= 1, got {stride}")
        if self.max_intents_per_component is not None and self.max_intents_per_component < 1:
            raise ValueError("max_intents_per_component must be >= 1")

    def stride_for(self, campaign: Campaign) -> int:
        if self.strides is not None and campaign in self.strides:
            return self.strides[campaign]
        return self.stride


#: The fuzzer's one hot-path metric, declared once next to the loop that
#: records it.  Binding (per component × outcome) is the cold half; the per
#: injection cost is one batched ``handle.inc()``.
_INTENTS_SITE = CounterSite(
    INTENTS_INJECTED,
    "Intents injected by the QGJ fuzzer, by final outcome.",
    ("campaign", "package", "outcome"),
)

#: Attribute keys of the inline leaf-ring entry (see :func:`_recording`):
#: one shared tuple instead of a fresh two-key dict per injection.  Order
#: matters -- materialized spans must carry ``{"seq": ..., "outcome": ...}``
#: exactly as ``record_leaf`` would.
_LEAF_KEYS = ("seq", "outcome")

#: One injection, shaped like :meth:`FuzzerLibrary._inject`.
InjectStep = Callable[
    [ComponentInfo, FuzzIntent, ComponentRunResult],
    Tuple[str, Optional[DispatchResult]],
]
#: Sees every injection as ``(info, intent, outcome, dispatch)``.
Observer = Callable[[ComponentInfo, FuzzIntent, str, Optional[DispatchResult]], None]


def _grammar(info: ComponentInfo, campaign: Campaign, config: FuzzConfig):
    """The campaign's intents for one component at *config*'s seed and stride."""
    stride = config.stride_for(campaign)
    return generate(campaign, seed=config.seed, component=info.name, stride=stride)


def _profiled_generation(iterable, profiler):
    """Charge the time spent *pulling* from a generator to ``generate``.

    Campaign intents come from a lazy generator, so their construction cost
    hides inside the for-loop header; this wrapper brackets each ``next()``
    so the self-profiler attributes it correctly.
    """
    it = iter(iterable)
    enter = profiler.enter
    leave = profiler.exit
    while True:
        enter("generate")
        try:
            item = next(it)
        except StopIteration:
            return
        finally:
            leave()
        yield item


def _profiled_dispatch(inject: InjectStep, profiler) -> InjectStep:
    """Charge the time spent inside *inject* to ``dispatch``."""
    enter = profiler.enter
    leave = profiler.exit

    def step(info, fuzz_intent, result):
        enter("dispatch")
        try:
            return inject(info, fuzz_intent, result)
        finally:
            leave()

    return step


def _observed(inject: InjectStep, observer: Observer) -> InjectStep:
    """Hand every injection of *inject* to *observer* after it returns."""

    def step(info, fuzz_intent, result):
        outcome, dispatch = inject(info, fuzz_intent, result)
        observer(info, fuzz_intent, outcome, dispatch)
        return outcome, dispatch

    return step


@contextlib.contextmanager
def _recording(t, clock, info, campaign, config, result, inject: InjectStep):
    """Yield *inject* wrapped in the telemetry one component run records.

    Everything resolvable is hoisted out of the step -- the metric family
    (registered up front so its TYPE/HELP lines appear even for a component
    that sends nothing), the per-outcome bound handles, the leaf-ring
    state -- and the recording is written *inline*: at ~100k injections/s a
    method call costs more than the record it would make.  The step is the
    one inline client of the tracer's leaf ring, and
    ``tests/telemetry/test_trace.py`` asserts its tuple materializes
    exactly what :meth:`Tracer.record_leaf` records.  Under sampling it
    calls ``record_leaf`` itself.

    Heartbeat ticks and ring appends are settled from ``result.sent``
    (fresh, and ``_inject`` adds one per call), not counted per injection:
    the heartbeat at the first step after each batch pause, so snapshots
    read the clock after the pause, and at exit; the ring appends at exit.
    """
    tracer = t.tracer
    metrics = t.metrics
    heartbeat = t.progress
    _INTENTS_SITE.family(metrics)
    heartbeat.count_injections(0)  # pin the rate baseline to campaign start
    handles: dict = {}
    labels = (campaign.value, info.package)
    sampling = tracer.sample_every != 1
    record_leaf = tracer.record_leaf
    finished_append = tracer._finished.append
    next_id = tracer._ids.__next__
    perf_counter = time.perf_counter
    # Leaf spans never push, so the injections' parent (the open component
    # span) is a constant for the whole run.
    stack = tracer._stack
    parent_id = stack[-1].span_id if stack else None
    batch_size = config.batch_size
    next_batch = batch_size

    def step(info, fuzz_intent, result):
        nonlocal next_batch
        if result.sent == next_batch:
            heartbeat.count_injections(batch_size)
            next_batch += batch_size
        start_wall = perf_counter()
        start_virtual = clock._now_ms
        outcome, dispatch = inject(info, fuzz_intent, result)
        end_wall = perf_counter()
        if sampling:
            record_leaf(
                "injection",
                {"seq": result.sent, "outcome": outcome},
                start_wall,
                end_wall,
                start_virtual,
                clock._now_ms,
            )
        else:
            # Inline Tracer.record_leaf: one flat ring entry, attribute
            # values trailing the shared key tuple.
            finished_append(
                (
                    next_id(),
                    parent_id,
                    "injection",
                    _LEAF_KEYS,
                    start_wall,
                    end_wall,
                    start_virtual,
                    clock._now_ms,
                    result.sent,
                    outcome,
                )
            )
        # Direct slot store: BoundCounter.inc(1) without the call.  A
        # handful of outcomes over thousands of injections makes try/except
        # cheaper than .get().
        try:
            handles[outcome].pending += 1
        except KeyError:
            handles[outcome] = handle = _INTENTS_SITE.bind(metrics, labels + (outcome,))
            handle.pending += 1
        return outcome, dispatch

    try:
        yield step
    finally:
        sent = result.sent
        settled = next_batch - batch_size
        if sent != settled:
            heartbeat.count_injections(sent - settled)
        if not sampling:
            tracer._appended += sent


#: Quick scale: every component still sees every action and every corruption
#: class, volumes shrink ~3.5x (A shrinks 12x; B and D run in full).
QUICK_CONFIG = FuzzConfig(
    strides={Campaign.A: 12, Campaign.B: 1, Campaign.C: 2, Campaign.D: 1}
)

#: Paper-scale: the full Table I volumes (~2M intents over the corpus).
PAPER_CONFIG = FuzzConfig(stride=1)


class FuzzerLibrary:
    """Injects campaign intents into components of one device.

    When a fault plan is armed (:mod:`repro.faults`), dispatch is hardened:
    transient transport errors are retried with seeded backoff, a package
    whose transport keeps failing is quarantined by the circuit breaker, and
    an optional :class:`~repro.faults.journal.KillSwitch` simulates the host
    dying after a fixed number of injections.  With no plan armed none of
    this machinery is on the dispatch path.
    """

    def __init__(
        self,
        device: Device,
        sender_package: str = QGJ_WEAR_PACKAGE,
        retry_policy: Optional[RetryPolicy] = None,
        quarantine: Optional[CircuitBreaker] = None,
        kill_switch: Optional[KillSwitch] = None,
    ) -> None:
        self._device = device
        self.sender_package = sender_package
        self.retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
        self.quarantine = quarantine if quarantine is not None else CircuitBreaker()
        self.kill_switch = kill_switch

    @property
    def device(self) -> Device:
        """The device this library injects into."""
        return self._device

    # -- single component ---------------------------------------------------------
    def fuzz_component(
        self,
        info: ComponentInfo,
        campaign: Campaign,
        config: FuzzConfig = QUICK_CONFIG,
        intents: Optional[Iterable[FuzzIntent]] = None,
        observer: Optional[Observer] = None,
    ) -> ComponentRunResult:
        """Run *campaign* against one component: the blocking driver.

        Drives :meth:`fuzz_component_coop`, advancing the device clock to
        each yielded deadline at once -- exactly what ``clock.sleep`` would
        have done inline -- so a fleet pair on the same generator replays a
        blocking run's timeline.  *intents* replaces the campaign grammar
        (the guided engine's stream); *observer* sees every injection as
        ``(info, intent, outcome, dispatch)``, so callers can fingerprint
        behaviours without re-entering the dispatch path.  With telemetry
        enabled the run is a ``component`` span and every injection goes
        through :func:`_recording`; ``--profile`` adds the ``generate`` and
        ``dispatch`` phase brackets.
        """
        result = ComponentRunResult(
            component=info.name.flatten_to_string(),
            kind=info.kind,
            campaign=campaign,
        )
        clock = self._device.clock
        t = self._device.runtime.telemetry
        inject: InjectStep = self._inject
        with contextlib.ExitStack() as stack:
            if t.enabled:
                profiler = t.profiler
                if profiler.enabled:
                    if intents is None:
                        intents = _grammar(info, campaign, config)
                    intents = _profiled_generation(intents, profiler)
                    inject = _profiled_dispatch(inject, profiler)
                stack.enter_context(
                    t.tracer.span(
                        "component",
                        clock=clock,
                        component=result.component,
                        kind=info.kind.value,
                        campaign=campaign.value,
                    )
                )
                inject = stack.enter_context(
                    _recording(t, clock, info, campaign, config, result, inject)
                )
            if observer is not None:
                inject = _observed(inject, observer)
            advance = clock.advance_to
            for deadline_ms in self.fuzz_component_coop(
                info, campaign, config, result, intents, inject
            ):
                advance(deadline_ms)
        return result

    def fuzz_component_coop(
        self,
        info: ComponentInfo,
        campaign: Campaign,
        config: FuzzConfig,
        result: ComponentRunResult,
        intents: Optional[Iterable[FuzzIntent]] = None,
        inject: Optional[InjectStep] = None,
    ) -> Generator[float, None, None]:
        """The component loop -- the only one: yields instead of sleeping.

        Sends each of *intents* (default: the campaign grammar) through
        *inject* (default: :meth:`_inject`), then ticks the kill switch and
        applies the paper's pacing.  Each ``yield`` hands the caller the
        absolute virtual deadline that pacing calls for (100 ms between
        intents, +250 ms per batch); the caller must advance this device's
        clock to the deadline before resuming -- :meth:`fuzz_component`
        does it inline, the :class:`~repro.android.clock.FleetScheduler`
        does it when this pair is next up.  A reboot aborts the rest of the
        component, and so does a quarantine.
        """
        if intents is None:
            intents = _grammar(info, campaign, config)
        if inject is None:
            inject = self._inject
        device = self._device
        clock = device.clock
        boots_before = device.boot_count
        max_intents = config.max_intents_per_component
        kill_switch = self.kill_switch
        for fuzz_intent in intents:
            inject(info, fuzz_intent, result)
            if kill_switch is not None:
                kill_switch.tick()
            yield clock.now_ms() + config.intent_delay_ms
            if result.sent % config.batch_size == 0:
                yield clock.now_ms() + config.batch_delay_ms
            if device.boot_count != boots_before:
                result.rebooted = True
                result.aborted = True
                return
            if result.quarantined:
                return
            # Checked after the send, so no intent is pulled unsent.
            if max_intents is not None and result.sent >= max_intents:
                return

    def _inject(
        self, info: ComponentInfo, fuzz_intent: FuzzIntent, result: ComponentRunResult
    ) -> Tuple[str, Optional[DispatchResult]]:
        """Send one intent; returns the telemetry outcome label and the
        dispatch result (``None`` for resolution failures and transport
        losses) -- the guided engine fingerprints from the latter."""
        intent = fuzz_intent.build(info.name)
        am = self._device.activity_manager
        result.sent += 1

        def send():
            if info.kind == ComponentKind.ACTIVITY:
                return am.start_activity(self.sender_package, intent)
            name, dispatch = am.start_service_with_result(self.sender_package, intent)
            return None if name is None else dispatch

        runtime = self._device.runtime
        plane = runtime.faults
        outcome = None
        dispatch = None
        try:
            if plane.armed:

                def count_retry(attempt: int, delay: float, exc: BaseException) -> None:
                    result.retries += 1

                try:
                    dispatch = self.retry_policy.run(
                        send,
                        self._device.clock,
                        key=(result.component, result.campaign.value, result.sent),
                        on_retry=count_retry,
                        telemetry_handle=runtime.telemetry,
                    )
                except (CompatMismatchError, *TRANSIENT_ERRORS) as exc:
                    # Infrastructure, not app behaviour: kept out of the
                    # classification buckets, with its own counter and
                    # outcome label, and quarantine pressure so a broken
                    # pair stops burning campaign time.  Version skew is
                    # permanent (the retry policy never sees it); a
                    # transient error lands here once its retries run out.
                    if isinstance(exc, CompatMismatchError):
                        result.compat_mismatches += 1
                        outcome = "compat_mismatch"
                    else:
                        result.transport_failures += 1
                        outcome = "transport_failure"
                    self.quarantine.record_failure(
                        info.package,
                        type(exc).__name__,
                        telemetry_handle=runtime.telemetry,
                    )
                    if self.quarantine.is_quarantined(info.package):
                        result.quarantined = True
                        result.aborted = True
                    return outcome, None
            else:
                dispatch = send()
        except SecurityException:
            result.security_exceptions += 1
            outcome = "security_exception"
        except ActivityNotFoundException:
            result.not_found += 1
            outcome = "not_found"
        if outcome is None:
            if dispatch is None:
                result.not_found += 1
                outcome = "not_found"
            else:
                if dispatch.delivered:
                    result.delivered += 1
                if dispatch.crashed:
                    result.crashes_seen += 1
                if dispatch.anr:
                    result.anrs_seen += 1
                if dispatch.crashed:
                    outcome = "crash"
                elif dispatch.anr:
                    outcome = "anr"
                else:
                    outcome = "delivered" if dispatch.delivered else "dropped"
        if plane.armed:
            # The transaction completed (whatever the app did with it), so
            # the package's consecutive-transport-failure streak resets.
            self.quarantine.record_success(info.package)
        return outcome, dispatch

    # -- whole app ------------------------------------------------------------------
    def fuzz_app(
        self,
        package_name: str,
        campaign: Campaign,
        config: FuzzConfig = QUICK_CONFIG,
        kinds: Sequence[ComponentKind] = (ComponentKind.ACTIVITY, ComponentKind.SERVICE),
    ) -> AppRunResult:
        """Run *campaign* against every targetable component of one app.

        Aborts the remaining components if the device reboots mid-run.
        """
        package = self._device.packages.get_package(package_name)
        if package is None:
            raise ValueError(f"package not installed: {package_name}")
        if self.quarantine.is_quarantined(package_name):
            # The breaker already tripped for this package; don't burn
            # campaign time on a broken transport.
            return AppRunResult(package=package_name, campaign=campaign, quarantined=True)
        app_result = AppRunResult(package=package_name, campaign=campaign)
        wanted = set(kinds)
        t = self._device.runtime.telemetry
        with contextlib.ExitStack() as stack:
            if t.enabled:
                clock = self._device.clock
                stack.enter_context(
                    t.tracer.span("campaign", clock=clock, campaign=campaign.value)
                )
                stack.enter_context(
                    t.tracer.span(
                        "package",
                        clock=clock,
                        package=package_name,
                        campaign=campaign.value,
                    )
                )
            for info in package.components:
                if info.kind not in wanted:
                    continue
                component_result = self.fuzz_component(info, campaign, config)
                app_result.components.append(component_result)
                if component_result.rebooted:
                    app_result.aborted_by_reboot = True
                    break
                if component_result.quarantined:
                    app_result.quarantined = True
                    break
        return app_result

    def fuzz_app_coop(
        self,
        package_name: str,
        campaign: Campaign,
        config: FuzzConfig = QUICK_CONFIG,
        kinds: Sequence[ComponentKind] = (ComponentKind.ACTIVITY, ComponentKind.SERVICE),
    ) -> Generator[float, None, AppRunResult]:
        """Cooperative :meth:`fuzz_app`: yields pacing deadlines, returns
        the :class:`AppRunResult` via ``StopIteration``.

        The fleet kernel's per-pair entry point.  Matches the telemetry-off
        :meth:`fuzz_app` path exactly, including the reboot/quarantine
        abort order.  It runs the hookless component loop: interleaved
        pairs share one tracer, so they must never open spans (fleet pairs
        account at the lane layer).
        """
        package = self._device.packages.get_package(package_name)
        if package is None:
            raise ValueError(f"package not installed: {package_name}")
        if self.quarantine.is_quarantined(package_name):
            return AppRunResult(package=package_name, campaign=campaign, quarantined=True)
        app_result = AppRunResult(package=package_name, campaign=campaign)
        wanted = set(kinds)
        for info in package.components:
            if info.kind not in wanted:
                continue
            component_result = ComponentRunResult(
                component=info.name.flatten_to_string(),
                kind=info.kind,
                campaign=campaign,
            )
            yield from self.fuzz_component_coop(info, campaign, config, component_result)
            app_result.components.append(component_result)
            if component_result.rebooted:
                app_result.aborted_by_reboot = True
                break
            if component_result.quarantined:
                app_result.quarantined = True
                break
        return app_result

    def fuzz_app_all_campaigns(
        self,
        package_name: str,
        config: FuzzConfig = QUICK_CONFIG,
        campaigns: Iterable[Campaign] = tuple(Campaign),
    ) -> List[AppRunResult]:
        """All four campaigns, one after another, as in the experiments."""
        return [self.fuzz_app(package_name, campaign, config) for campaign in campaigns]

    # -- whole device -----------------------------------------------------------------
    def fuzz_device(
        self,
        config: FuzzConfig = QUICK_CONFIG,
        campaigns: Iterable[Campaign] = tuple(Campaign),
        packages: Optional[Sequence[str]] = None,
        exclude: Sequence[str] = (QGJ_WEAR_PACKAGE, QGJ_MOBILE_PACKAGE),
    ) -> FuzzSummary:
        """Fuzz every installed app (or *packages*) with every campaign."""
        summary = FuzzSummary(device=self._device.name)
        if packages is None:
            packages = [
                p.package
                for p in self._device.packages.installed_packages()
                if p.package not in exclude
            ]
        for package_name in packages:
            for campaign in campaigns:
                summary.apps.append(self.fuzz_app(package_name, campaign, config))
        return summary
