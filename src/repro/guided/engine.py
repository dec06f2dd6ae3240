"""The guided injection engine: one arm's block of intents on one device.

This is the layer between the scheduler (which decides *how much* budget an
``(package, campaign)`` arm gets) and the fuzzer library (which knows how to
inject).  A :class:`GuidedTask` carries everything one shard needs to run a
round's blocks for one package -- blocks, mutation pool, the fingerprints
already known globally, seed -- and is picklable by design, because the farm
ships it to worker processes inside a ``ShardSpec``.

The intent stream per component mixes two sources, exactly like hypofuzz's
generational/pool split: with probability ``pool_rate`` the next intent is a
mutation of a corpus entry for this arm (splice included); otherwise it comes
from the campaign grammar, re-seeded per round so later rounds do not replay
round zero's prefix.  One seeded ``random.Random`` per block drives both the
source choice and the mutations, so the stream is a pure function of
``(seed, round, package, campaign)`` -- which worker ran it cannot matter.

Novelty here is *local*: the engine admits a candidate when its fingerprint
is in neither the shipped ``known`` set nor what this block has already seen.
Two shards may therefore both claim the same fingerprint in one round; the
study's post-merge attribution (allocation order, corpus-first) resolves
that deterministically.  This module must not import :mod:`repro.farm` --
the farm imports *it*.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Dict, List, Tuple

from repro.android.component import ComponentInfo, ComponentKind
from repro.qgj.campaigns import Campaign, FuzzIntent, campaign_size, generate
from repro.qgj.fuzzer import FuzzConfig, FuzzerLibrary
from repro.guided.corpus import CorpusEntry
from repro.guided.fingerprint import (
    BehaviorFingerprint,
    fingerprint_injection,
    throwable_signature,
)
from repro.guided.mutators import mutate_intent

#: Grammar re-seeding stride per round: generate() keys its RNG on the seed,
#: so adding a round-scaled offset gives each round a fresh (but replayable)
#: grammar stream instead of replaying round zero's prefix.
_ROUND_SEED_STRIDE = 7919  # a prime, so strides don't alias across rounds


@dataclasses.dataclass(frozen=True)
class GuidedBlock:
    """One funded arm: spend *budget* intents on *campaign*.

    *offset* is the arm's cumulative prior spend (a merged, worker-count
    independent statistic).  Campaigns A and B are seed-independent
    deterministic sequences, so without an offset every round would replay
    the same grammar prefix; advancing by the prior spend makes successive
    blocks walk successively deeper into the campaign stream.
    """

    campaign: str  # Campaign.value
    budget: int
    offset: int = 0

    def __post_init__(self) -> None:
        if self.budget < 1:
            raise ValueError(f"block budget must be >= 1, got {self.budget}")
        if self.offset < 0:
            raise ValueError(f"block offset must be >= 0, got {self.offset}")


@dataclasses.dataclass(frozen=True)
class GuidedTask:
    """One package's slice of one round, picklable for the farm."""

    package: str
    round_index: int
    blocks: Tuple[GuidedBlock, ...]
    #: Mutation pool: this package's corpus entries at round start.
    pool: Tuple[CorpusEntry, ...]
    #: Fingerprints (as tuples) known globally at round start.
    known: Tuple[Tuple[str, str, str, str, str, str], ...]
    seed: int
    pool_rate: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.pool_rate <= 1.0:
            raise ValueError(f"pool_rate must be in [0, 1], got {self.pool_rate}")


@dataclasses.dataclass
class BlockOutcome:
    """What one block observed, shipped home for merge and attribution."""

    package: str
    campaign: str
    round_index: int
    budget: int
    sent: int = 0
    #: Locally-novel entries, in discovery order (attribution re-checks them
    #: against the merged corpus; discovery order is deterministic per block).
    new_entries: List[CorpusEntry] = dataclasses.field(default_factory=list)
    #: Triage-compatible crash buckets: (component, exception, frame) -> hits.
    crash_buckets: Dict[Tuple[str, str, str], int] = dataclasses.field(
        default_factory=dict
    )
    #: Outcome label -> count, over every injection in the block.
    outcomes: Dict[str, int] = dataclasses.field(default_factory=dict)
    rebooted: bool = False
    aborted: bool = False


def _arm_stream(
    campaign: Campaign,
    info: ComponentInfo,
    count: int,
    rng: random.Random,
    pool: Tuple[FuzzIntent, ...],
    pool_rate: float,
    grammar_seed: int,
    skip: int = 0,
):
    """The block's intent source for one component: pool mutations mixed
    with the (cycled) campaign grammar, all driven by the block RNG.
    *skip* fast-forwards the grammar (modulo its size) so a later block
    continues where the arm's earlier blocks left off."""
    grammar = generate(campaign, seed=grammar_seed, component=info.name)
    for _ in range(skip % campaign_size(campaign)):
        next(grammar)
    for _ in range(count):
        if pool and rng.random() < pool_rate:
            base = pool[rng.randrange(len(pool))]
            yield mutate_intent(base, rng, pool)
        else:
            try:
                yield next(grammar)
            except StopIteration:
                # Grammar exhausted mid-block: restart it. The replayed
                # prefix still matters -- the device has aged since.
                grammar = generate(campaign, seed=grammar_seed, component=info.name)
                yield next(grammar)


def _split_budget(budget: int, parts: int) -> List[int]:
    """Spread *budget* over *parts* components, remainder to the front."""
    base, extra = divmod(budget, parts)
    return [base + (1 if i < extra else 0) for i in range(parts)]


def run_guided_blocks(
    fuzzer: FuzzerLibrary,
    task: GuidedTask,
    config: FuzzConfig,
    kinds: Tuple[ComponentKind, ...] = (ComponentKind.ACTIVITY, ComponentKind.SERVICE),
) -> List[BlockOutcome]:
    """Run every block of *task* against its package on *fuzzer*'s device.

    Blocks run in task order on one device session, so within a round the
    package's aging accumulates across its funded arms -- same as the blind
    study's campaign order.  A reboot aborts the remaining blocks (the
    session to the device is lost, as in the paper's harness).
    """
    device = fuzzer.device
    package = device.packages.get_package(task.package)
    if package is None:
        raise ValueError(f"package not installed: {task.package}")
    components = [info for info in package.components if info.kind in kinds]
    if not components:
        raise ValueError(f"package has no fuzzable components: {task.package}")
    known = {BehaviorFingerprint.from_tuple(values) for values in task.known}
    grammar_seed = task.seed + _ROUND_SEED_STRIDE * task.round_index
    outcomes: List[BlockOutcome] = []
    session_lost = False
    for block in task.blocks:
        outcome = BlockOutcome(
            package=task.package,
            campaign=block.campaign,
            round_index=task.round_index,
            budget=block.budget,
        )
        outcomes.append(outcome)
        if session_lost:
            outcome.aborted = True
            continue
        campaign = Campaign(block.campaign)
        rng = random.Random(
            f"guided|{task.seed}|{task.round_index}|{task.package}|{block.campaign}"
        )
        pool = tuple(
            entry.intent for entry in task.pool if entry.campaign == block.campaign
        )
        boots_at_start = device.boot_count

        def observe(
            info: ComponentInfo,
            fuzz_intent: FuzzIntent,
            outcome_label: str,
            dispatch,
        ) -> None:
            rebooted = device.boot_count != boots_at_start
            fingerprint = fingerprint_injection(
                info.name.flatten_to_string(),
                outcome_label,
                dispatch,
                device,
                rebooted=rebooted,
            )
            outcome.outcomes[outcome_label] = outcome.outcomes.get(outcome_label, 0) + 1
            if dispatch is not None and dispatch.crashed and dispatch.throwable is not None:
                exception, frame, _ = throwable_signature(dispatch.throwable)
                bucket = (
                    info.name.flatten_to_string(),
                    exception,
                    frame or "(unknown)",
                )
                outcome.crash_buckets[bucket] = outcome.crash_buckets.get(bucket, 0) + 1
            if fingerprint not in known:
                known.add(fingerprint)
                outcome.new_entries.append(
                    CorpusEntry(
                        package=task.package,
                        campaign=block.campaign,
                        fingerprint=fingerprint,
                        intent=fuzz_intent,
                    )
                )

        skip = block.offset // len(components)
        for info, share in zip(components, _split_budget(block.budget, len(components))):
            if share == 0:
                continue
            result = fuzzer.fuzz_component(
                info,
                campaign,
                config,
                intents=_arm_stream(
                    campaign, info, share, rng, pool, task.pool_rate, grammar_seed, skip
                ),
                observer=observe,
            )
            outcome.sent += result.sent
            if result.rebooted:
                outcome.rebooted = True
                outcome.aborted = True
                session_lost = True
                break
            if result.quarantined:
                outcome.aborted = True
                session_lost = True
                break
    return outcomes
