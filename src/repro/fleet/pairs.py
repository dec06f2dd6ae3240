"""One fleet pair: spec, summary, and the cooperative pair task.

A *pair* is the fleet's unit of simulation: one watch+phone pair drawn
from a :class:`~repro.apps.profiles.DeviceProfile` cohort, fuzzing its own
package slice under its own derived seed and cohort-composed fault plan.
:func:`pair_task` is a generator in the
:class:`~repro.android.clock.FleetScheduler` protocol -- it yields the
absolute virtual deadline of every pacing sleep and returns a picklable,
JSON-serializable :class:`PairSummary`.  The pair is
:func:`~repro.farm.shard.build_rig`'s wear bed with the cohort's watch
model and link latency, on the scheduler's clock, carrying its package
slice of the lane's shared corpus.

Everything a pair does is a pure function of its :class:`PairSpec` (plus
the shared read-only corpus): devices are named by pair id, seeds and
plans are pre-derived by the planner, and cohort profiles are static data.
That is the whole fleet determinism argument -- which lane or worker runs
a pair, and in what interleaving, cannot change its summary.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Any, Dict, Generator, Optional, Tuple

from repro.android.clock import Clock
from repro.android.runtime import RuntimeContext
from repro.apps.catalog import Corpus
from repro.apps.profiles import BATTERY_LOW_PCT, FLEET_COHORTS, DeviceProfile
from repro.experiments.config import ExperimentConfig
from repro.farm.shard import build_rig
from repro.faults.journal import KillSwitch
from repro.faults.plan import FaultPlan
from repro.faults.plane import NOOP_PLANE, FaultPlane
from repro.qgj.campaigns import Campaign
from repro.qgj.fuzzer import FuzzerLibrary
from repro.wear.ambient import DisplayState
from repro.wear.device import WearDevice

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.guided.study import GuidedConfig


@dataclasses.dataclass(frozen=True)
class PairSpec:
    """Everything one fleet pair needs, picklable by design."""

    pair_id: int
    cohort: str
    packages: Tuple[str, ...]
    campaigns: Tuple[Campaign, ...]
    config: ExperimentConfig
    seed: int
    #: Cohort-composed, pair-re-seeded fault plan (``None`` = clean pair).
    plan: Optional[FaultPlan] = None
    #: When set, the pair fuzzes its package through a pair-local
    #: feedback-guided loop (bandit over campaign arms) instead of the
    #: blind campaign sweep.  Still a pure function of the spec: the
    #: bandit, pool mutations and grammar streams all seed from it.
    guided: Optional["GuidedConfig"] = None

    @property
    def name(self) -> str:
        return f"pair-{self.pair_id:04d}"

    def profile(self) -> DeviceProfile:
        return FLEET_COHORTS[self.cohort]


@dataclasses.dataclass(frozen=True)
class PairSummary:
    """What one pair ships home (JSON round-trippable for the journal)."""

    pair_id: int
    cohort: str
    model: str
    packages: Tuple[str, ...]
    sent: int
    delivered: int
    crashes: int
    anrs: int
    not_found: int
    security_exceptions: int
    transport_failures: int
    compat_mismatches: int
    retries: int
    quarantined: int
    reboots: int
    battery_end_pct: int
    ambient_transitions: int
    clock_ms: float

    @property
    def crash_rate(self) -> float:
        """Crashes per 1000 delivered intents (0 for an idle pair)."""
        if self.sent == 0:
            return 0.0
        return 1000.0 * self.crashes / self.sent

    def to_record(self) -> Dict[str, Any]:
        record = dataclasses.asdict(self)
        record["packages"] = list(self.packages)
        return record

    @staticmethod
    def from_record(record: Dict[str, Any]) -> "PairSummary":
        fields = {f.name for f in dataclasses.fields(PairSummary)}
        payload = {k: v for k, v in record.items() if k in fields}
        payload["packages"] = tuple(payload["packages"])
        return PairSummary(**payload)


def _battery_end_pct(profile: DeviceProfile, clock_ms: float) -> int:
    drained = profile.battery_drain_pct_per_hour * (clock_ms / 3_600_000.0)
    return max(0, round(profile.battery_start_pct - drained))


def _arm_power_model(watch: WearDevice, profile: DeviceProfile) -> None:
    """Schedule the cohort's ambient duty cycle and low-battery park.

    Both run as clock callbacks, so they fire whenever the scheduler (or a
    blocking trampoline) advances this pair's clock -- the display state an
    injected intent observes depends only on the pair's own virtual time.
    Once the battery model crosses the low-water mark the watch parks in
    ambient mode and the duty cycle's pending toggle is cancelled (the
    compaction path in :class:`~repro.android.clock.Clock` exists for
    exactly this kind of armed-then-abandoned timer).
    """
    state = {"parked": False, "handle": None}
    ambient = watch.ambient
    clock = watch.clock

    def toggle() -> None:
        if state["parked"]:
            return
        if ambient.state is DisplayState.AMBIENT:
            ambient.exit_ambient()
        else:
            ambient.enter_ambient()
        assert profile.ambient_cycle_ms is not None
        state["handle"] = clock.call_after(profile.ambient_cycle_ms / 2.0, toggle)

    if profile.ambient_cycle_ms is not None:
        state["handle"] = clock.call_after(profile.ambient_cycle_ms / 2.0, toggle)

    drain = profile.battery_drain_pct_per_hour
    if drain > 0 and profile.battery_start_pct > BATTERY_LOW_PCT:
        low_at_ms = (
            (profile.battery_start_pct - BATTERY_LOW_PCT) / drain * 3_600_000.0
        )

        def park() -> None:
            state["parked"] = True
            if state["handle"] is not None:
                state["handle"].cancel()
            watch.logcat.w(
                "BatteryService",
                f"battery low ({BATTERY_LOW_PCT}%), parking display in ambient",
            )
            if ambient.state is not DisplayState.AMBIENT:
                ambient.enter_ambient()

        clock.call_at(low_at_ms, park)


def _guided_pair_rounds(
    spec: PairSpec, fuzzer: FuzzerLibrary, package_name: str
) -> Generator[float, None, Dict[str, int]]:
    """A pair-local guided loop: bandit rounds over one package's campaigns.

    The fleet analogue of :func:`repro.guided.study.run_guided_study`,
    scoped to a single device pair and its single package: the bandit's
    arms are the pair's campaigns, blocks run back-to-back on the pair's
    own device session (blocking inside one scheduler step -- pairs are
    independent, so coarse interleaving is harmless, and no other pair
    runs inside a block's telemetry ``component`` span), and the generator
    yields at round boundaries so the fleet scheduler can switch pairs.
    Everything seeds from the spec, so guided fleets keep the packing
    invariance.  Returns the outcome-label totals (plus ``"sent"``).
    """
    # Deferred: the guided package pulls in the engine/scheduler stack,
    # which clean blind fleets never need.
    from repro.guided.corpus import BehaviorCorpus
    from repro.guided.engine import GuidedBlock, GuidedTask, run_guided_blocks
    from repro.guided.scheduler import make_scheduler
    from repro.android.component import ComponentKind
    from repro.qgj.campaigns import campaign_size

    guided = spec.guided
    assert guided is not None
    device = fuzzer.device
    package = device.packages.get_package(package_name)
    if package is None:
        raise ValueError(f"package not installed: {package_name}")
    fuzzed_kinds = (ComponentKind.ACTIVITY, ComponentKind.SERVICE)
    fuzzable = sum(1 for info in package.components if info.kind in fuzzed_kinds)
    per_component = sum(
        campaign_size(campaign, spec.config.fuzz.stride_for(campaign))
        for campaign in spec.campaigns
    )
    budget = (
        guided.budget if guided.budget is not None else fuzzable * per_component
    )
    arms = [(package_name, campaign.value) for campaign in spec.campaigns]
    scheduler = make_scheduler(
        guided.scheduler,
        arms,
        seed=guided.seed ^ spec.seed,
        exploration=guided.exploration,
    )
    corpus = BehaviorCorpus()
    totals: Dict[str, int] = {"sent": 0}
    remaining = budget
    round_index = 0
    while remaining > 0:
        allocation = scheduler.allocate(min(guided.arms_per_round, len(arms)))
        funded = []
        for arm in allocation:
            if remaining < 1:
                break
            block = min(guided.block_size, remaining)
            funded.append((arm, block))
            remaining -= block
        task = GuidedTask(
            package=package_name,
            round_index=round_index,
            blocks=tuple(
                GuidedBlock(
                    campaign=campaign_value,
                    budget=block,
                    offset=scheduler.states[(package_name, campaign_value)].intents,
                )
                for (_, campaign_value), block in funded
            ),
            pool=tuple(corpus.entries_for(package_name)),
            known=tuple(fp.as_tuple() for fp in corpus.fingerprints()),
            seed=guided.seed ^ spec.seed,
            pool_rate=guided.pool_rate,
        )
        outcomes = run_guided_blocks(fuzzer, task, spec.config.fuzz)
        for ((_, campaign_value), block), outcome in zip(funded, outcomes):
            novel = sum(1 for entry in outcome.new_entries if corpus.add(entry))
            scheduler.update((package_name, campaign_value), intents=block, novel=novel)
            totals["sent"] += outcome.sent
            for label, count in outcome.outcomes.items():
                totals[label] = totals.get(label, 0) + count
        round_index += 1
        # Round boundary: the only fleet yield point of a guided pair.
        yield device.clock.now_ms()
    return totals


def pair_task(
    spec: PairSpec,
    corpus: Corpus,
    kill_switch: Optional[KillSwitch] = None,
    clock: Optional[Clock] = None,
    telemetry_handle=None,
) -> Generator[float, None, PairSummary]:
    """Run one pair cooperatively; returns its :class:`PairSummary`.

    The generator yields every pacing deadline of the underlying fuzz
    loops (see :meth:`FuzzerLibrary.fuzz_app_coop`); the caller advances
    this pair's clock to each yielded deadline before resuming.  Driving
    it with a trivial ``advance_to`` trampoline reproduces a blocking run
    exactly -- the fleet equivalence tests pin that down.  *clock*, when
    given, becomes the watch's clock (the scheduler supplies it so it can
    advance a pair's time between resumptions).  *telemetry_handle* scopes
    the pair's device tree to the lane's handle -- in a worker process the
    global fallback would be a disabled handle and every device-level
    counter would silently vanish from the merged registry.
    """
    profile = spec.profile()
    plane = (
        FaultPlane(spec.plan, telemetry_handle=telemetry_handle)
        if spec.plan is not None
        else NOOP_PLANE
    )
    runtime = RuntimeContext(fault_plane=plane, telemetry_handle=telemetry_handle)
    _, fuzzer = build_rig(
        spec.config, "wear", runtime, kill_switch, corpus=corpus, packages=spec.packages,
        profile=profile, pair_id=spec.pair_id, clock=clock,
    )
    watch = fuzzer.device
    _arm_power_model(watch, profile)
    sent = delivered = crashes = anrs = not_found = 0
    security = transport = compat = retries = quarantined = 0
    for package_name in spec.packages:
        if spec.guided is not None:
            totals = yield from _guided_pair_rounds(spec, fuzzer, package_name)
            sent += totals.get("sent", 0)
            delivered += totals.get("delivered", 0)
            crashes += totals.get("crash", 0)
            anrs += totals.get("anr", 0)
            not_found += totals.get("not_found", 0)
            security += totals.get("security_exception", 0)
            transport += totals.get("transport_failure", 0)
            compat += totals.get("compat_mismatch", 0)
            if fuzzer.quarantine.is_quarantined(package_name):
                quarantined += 1
            continue
        for campaign in spec.campaigns:
            app_result = yield from fuzzer.fuzz_app_coop(
                package_name, campaign, spec.config.fuzz
            )
            sent += app_result.sent
            for component in app_result.components:
                delivered += component.delivered
                crashes += component.crashes_seen
                anrs += component.anrs_seen
                not_found += component.not_found
                security += component.security_exceptions
                transport += component.transport_failures
                compat += component.compat_mismatches
                retries += component.retries
            if app_result.quarantined:
                quarantined += 1
    clock_ms = watch.clock.now_ms()
    return PairSummary(
        pair_id=spec.pair_id,
        cohort=spec.cohort,
        model=profile.model,
        packages=spec.packages,
        sent=sent,
        delivered=delivered,
        crashes=crashes,
        anrs=anrs,
        not_found=not_found,
        security_exceptions=security,
        transport_failures=transport,
        compat_mismatches=compat,
        retries=retries,
        quarantined=quarantined,
        reboots=watch.boot_count - 1,
        battery_end_pct=_battery_end_pct(profile, clock_ms),
        ambient_transitions=len(watch.ambient.transitions),
        clock_ms=clock_ms,
    )
