"""The study driver: one call from shard specs to merged-ready results.

Every study -- wear, phone, fleet and each guided round -- ends the same
way: run its shards under the :mod:`repro.farm.supervisor` executor, refuse
a study that lost shards unless partial results were asked for, drop the
holes poisoned shards leave, and fold worker-local telemetry back into the
live handle.  :func:`drive_study` is that tail, written once.

``workers=1`` is the deterministic reference path: shards run one after
another in this process, against the live telemetry handle (so heartbeats
stream and ``dumpsys telemetry`` works mid-run) and an optional kill-switch
that counts injections across the whole study.  ``workers>1`` fans the same
specs out across supervised worker processes (deadlines, heartbeat
liveness, bounded retries, poison quarantine, shared kill switch, graceful
drain); each worker builds everything from its picklable spec, so the
merged study is bit-identical to the sequential one -- parallelism only
changes wall-clock, never results.  Results come back in spec order, which
the merge layer relies on for shard-ordered concatenation.
"""

from __future__ import annotations

import dataclasses
import os
import sys
from typing import List, Optional, Sequence, Tuple, Union

from repro import telemetry
from repro.farm.health import ShardPoisonedError, StudyHealthReport
from repro.farm.merge import absorb_telemetry
from repro.farm.shard import ShardResult, ShardSpec
from repro.farm.supervisor import DEFAULT_POLICY, SupervisionPolicy, supervise_shards
from repro.faults.journal import KillSwitch


def resolve_workers(workers: Union[int, str], units: Optional[int] = None) -> int:
    """Resolve a ``--workers`` value (``"auto"`` or an int) to a count.

    ``auto`` asks for one worker per available core, but never more workers
    than there are *units* of work (shards or lanes) -- extra processes
    would only sit idle -- and falls back to ``1`` on a single-core host,
    where process fan-out costs more than it buys.  Both clamps print a
    one-line note so bench numbers are never silently sequential.
    """
    if workers == "auto":
        cores = os.cpu_count() or 1
        resolved = cores
        if units is not None:
            resolved = min(resolved, max(units, 1))
        if resolved <= 1:
            reason = (
                f"only {units} unit(s) of work"
                if cores > 1
                else f"cpu_count={cores}"
            )
            print(
                f"[farm] --workers auto resolved to 1 ({reason}); "
                "running sequentially in-process",
                file=sys.stderr,
            )
            return 1
        return resolved
    count = int(workers)
    if count < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return count


def drive_study(
    specs: Sequence[ShardSpec],
    workers: int = 1,
    kill_after_injections: Optional[int] = None,
    shard_timeout: Optional[float] = None,
    max_shard_attempts: Optional[int] = None,
    allow_partial: bool = False,
) -> Tuple[List[ShardResult], StudyHealthReport]:
    """Run every shard of one study; return the completed results and health.

    Every spec is stamped with the live telemetry handle's state (enabled,
    profiler) so worker shards instrument exactly like
    in-process ones.  *kill_after_injections* arms a study-wide kill switch
    (shared across workers at ``workers>1``).  *shard_timeout* (seconds)
    and *max_shard_attempts* tune the supervisor's deadline and retries.

    Raises :class:`~repro.farm.health.ShardPoisonedError` when a shard
    failed every attempt -- unless *allow_partial*, in which case the
    poisoned shards are dropped from the results and itemized in the
    health report -- and always when no shard completed at all.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    live = telemetry.get()
    specs = [
        dataclasses.replace(
            spec,
            telemetry_enabled=live.enabled,
            profile=live.profiler.enabled,
        )
        for spec in specs
    ]
    policy = SupervisionPolicy(
        max_attempts=(
            max_shard_attempts
            if max_shard_attempts is not None
            else DEFAULT_POLICY.max_attempts
        ),
        shard_timeout_s=shard_timeout,
    )
    kill_switch = (
        KillSwitch(kill_after_injections) if kill_after_injections is not None else None
    )
    run = supervise_shards(
        specs,
        workers=workers,
        policy=policy,
        kill_switch=kill_switch,
        telemetry_handle=live,
    )
    if run.health.poisoned() and not allow_partial:
        raise ShardPoisonedError(run.health)
    results = [result for result in run.results if result is not None]
    if not results:
        raise ShardPoisonedError(run.health)
    if workers != 1:
        absorb_telemetry(live, results)
    return results, run.health
