"""The device farm: sharded execution of the fuzzing studies.

The paper ran one watch on one operator's desk; campaign wall-clock was
bounded by a single device.  Real intent-fuzzing deployments (and every
fuzzing farm since) scale the other way: partition the target population,
give every partition its own device, run partitions in parallel, merge the
evidence.  This package is that farm for the simulator:

* :mod:`repro.farm.partition` -- splits a corpus into per-package shards
  and derives each shard's seed and fault plan (``corpus seed xor
  crc32(shard key)``), so a shard's behaviour is a pure function of its
  spec, never of which worker ran it or what ran before it;
* :mod:`repro.farm.shard` -- :func:`run_shard`: runs the body its study kind
  maps to (a fresh device pair's segments, a guided package's blocks, or a
  fleet lane) with its *own* scoped fault plane and telemetry handle
  (:class:`~repro.android.runtime.RuntimeContext`), and returns a picklable
  :class:`ShardResult`; also :func:`build_rig`, the one recipe for the
  paper's three test beds that builds every device the program fuzzes,
  and :func:`run_segment`, the fuzz / pull log / fold / clear step every
  blind shard and ablation shares;
* :mod:`repro.farm.pool` -- :func:`drive_study`: the one study driver every
  study (wear, phone, fleet, each guided round) ends with -- stamps the
  live telemetry state onto the specs, runs them under supervision,
  raises on poison unless partial results are allowed, drops the holes,
  and absorbs worker telemetry; plus :func:`resolve_workers` for
  ``--workers auto``;
* :mod:`repro.farm.supervisor` -- :func:`supervise_shards`: the executor
  behind :func:`drive_study`: ``workers=1`` runs shards sequentially
  in-process (deterministic reference path, live telemetry, kill-switch
  support); ``workers>1`` adds per-shard deadlines and heartbeat
  liveness, bounded bit-identical retries (a journalled shard that
  finished returns its result record), poison quarantine with an explicit
  :class:`~repro.farm.health.StudyHealthReport`, a shared ``--kill-after``
  switch, and graceful SIGINT/SIGTERM drain;
* :mod:`repro.farm.health` -- the supervision vocabulary: attempt/shard
  outcome records, the health report, the worker heartbeat, and the
  ``REPRO_FARM_CRASH`` worker-crash injector used to exercise all of it;
* :mod:`repro.farm.merge` -- collapses shard outputs into the exact
  artifacts the analysis layer consumes (:meth:`FuzzSummary.merge`,
  :meth:`StudyCollector.merge`, metrics/span absorption), skipping the
  holes poisoned shards leave behind;
* :mod:`repro.farm.journal` -- :class:`StudyManifest`: one manifest over
  per-shard checkpoint journals that names its study, validating study
  kind / config / fault plan / worker count on resume.

**Determinism contract.**  Every shard starts its own virtual clock at
zero and is seeded from its spec alone, so the merged study is bit-identical
at any worker count: ``workers=4`` reproduces ``workers=1`` reproduces the
pre-farm serial tables.  Supervision preserves the contract: a retried
shard re-runs the same pure function of the same spec, so a study that
needed three worker crashes' worth of retries still merges byte-identical
to a clean run.
"""

from __future__ import annotations

from repro.farm.health import (
    CrashPolicy,
    ShardPoisonedError,
    StudyHealthReport,
    StudyInterrupted,
    WorkerHeartbeat,
)
from repro.farm.journal import StudyManifest
from repro.farm.merge import (
    absorb_telemetry,
    merge_collectors,
    merge_fleet,
    merge_summaries,
)
from repro.farm.partition import derive_plan, derive_seed, plan_shards, shard_packages
from repro.farm.pool import drive_study, resolve_workers
from repro.farm.shard import ShardResult, ShardSpec, build_rig, run_segment, run_shard
from repro.farm.supervisor import (
    DEFAULT_POLICY,
    SupervisedRun,
    SupervisionPolicy,
    supervise_shards,
)

__all__ = [
    "CrashPolicy",
    "DEFAULT_POLICY",
    "ShardPoisonedError",
    "ShardResult",
    "ShardSpec",
    "StudyHealthReport",
    "StudyInterrupted",
    "StudyManifest",
    "SupervisedRun",
    "SupervisionPolicy",
    "WorkerHeartbeat",
    "absorb_telemetry",
    "build_rig",
    "derive_plan",
    "derive_seed",
    "drive_study",
    "merge_collectors",
    "merge_fleet",
    "merge_summaries",
    "plan_shards",
    "resolve_workers",
    "run_segment",
    "run_shard",
    "shard_packages",
    "supervise_shards",
]
