"""The chaos plane: seeded environment-fault injection beside the simulator.

The DSN'18 campaigns were operationally fragile -- a reboot mid-run drops
the adb session and the operator "resumes with the next app".  Cotroneo et
al. (*Dependability Assessment of the Android OS through Fault Injection*)
show that OS/IPC-level faults are a failure dimension of their own, distinct
from app-level intent fuzzing.  This package brings both into the QGJ stack:

* :mod:`repro.faults.plan` -- :class:`FaultPlan(seed=...)`: a deterministic,
  seeded schedule of adb session drops, binder transport failures, lmkd
  process kills, logcat truncation, OS-service outages/corruptions,
  system_server restarts, and compat mismatches, on the virtual clock;
* :mod:`repro.faults.plane` -- the installed plane and its hook entry
  points in ``adb.py`` / ``process.py`` / ``activity_manager.py`` /
  ``package_manager.py`` / ``sensor.py`` / ``wear/node.py``; binder
  transport faults fire only at the activity manager's outermost dispatch;
* :mod:`repro.faults.retry` -- exponential backoff + seeded jitter for
  transient transport errors;
* :mod:`repro.faults.quarantine` -- the per-package circuit breaker;
* :mod:`repro.faults.journal` -- the crash-safe checkpoint journal behind
  ``python -m repro quick --resume <journal>``.

**No plan installed means no drift.**  Like telemetry, the default handle is
a shared no-op whose ``armed`` is ``False``; hooks check that one attribute
and return.  Installing an *empty* ``FaultPlan`` arms the hooks but fires
nothing, and is verified (by property test) to produce results identical to
no plan at all.

Usage::

    from repro import faults

    with faults.session(faults.FaultPlan.chaos(seed=7)):
        result = run_wear_study(QUICK)
"""

from __future__ import annotations

import contextlib
import dataclasses
from typing import Iterator, Optional, Union

from repro.faults.errors import (
    TRANSIENT_ERRORS,
    AdbSessionDropped,
    CampaignKilled,
    CompatMismatchError,
    InfrastructureError,
    ServiceRestarted,
    ServiceUnavailable,
    StaleBinderReply,
)
from repro.faults.journal import CheckpointJournal, KillSwitch, SharedKillSwitch
from repro.faults.plan import (
    BASE_WEAR_API,
    CHAOS_INTERVALS_MS,
    INTERVAL_FIELDS,
    SERVICE_OUTAGE_WINDOW_MS,
    CompatMatrix,
    FaultEvent,
    FaultKind,
    FaultPlan,
    PlanExecution,
)
from repro.faults.plane import NOOP_PLANE, FaultPlane, NoopPlane
from repro.faults.quarantine import CircuitBreaker, QuarantineEvent
from repro.faults.retry import RetryPolicy

__all__ = [
    "AdbSessionDropped",
    "BASE_WEAR_API",
    "CampaignKilled",
    "CheckpointJournal",
    "CircuitBreaker",
    "CompatMatrix",
    "CompatMismatchError",
    "FaultEvent",
    "FaultKind",
    "FaultPlan",
    "FaultPlane",
    "InfrastructureError",
    "KillSwitch",
    "NoopPlane",
    "PlanExecution",
    "QuarantineEvent",
    "RetryPolicy",
    "SERVICE_OUTAGE_WINDOW_MS",
    "ServiceRestarted",
    "ServiceUnavailable",
    "SharedKillSwitch",
    "StaleBinderReply",
    "TRANSIENT_ERRORS",
    "compose_plan",
    "enabled",
    "fingerprint",
    "get",
    "install",
    "session",
    "uninstall",
]

_active: Union[FaultPlane, NoopPlane] = NOOP_PLANE


def get() -> Union[FaultPlane, NoopPlane]:
    """The current process-wide fault plane (the no-op plane by default)."""
    return _active


def enabled() -> bool:
    return _active.armed


def fingerprint() -> str:
    """Identity of the installed plan (``"none"`` when no plan is armed)."""
    return _active.fingerprint()


def install(plan: FaultPlan) -> FaultPlane:
    """Arm *plan* process-wide and return the live plane."""
    global _active
    plane = FaultPlane(plan)
    _active = plane
    return plane


def uninstall() -> None:
    """Return to the free no-op plane (schedule state is discarded)."""
    global _active
    _active = NOOP_PLANE


@contextlib.contextmanager
def session(plan: Optional[FaultPlan]) -> Iterator[Union[FaultPlane, NoopPlane]]:
    """Arm *plan* for a ``with`` block (``None`` keeps the no-op plane)."""
    if plan is None:
        yield _active
        return
    plane = install(plan)
    try:
        yield plane
    finally:
        uninstall()


def compose_plan(
    fault_seed: Optional[int] = None,
    service_fault_seed: Optional[int] = None,
    compat_skew: Optional[int] = None,
) -> Optional[FaultPlan]:
    """The one composition rule for the CLI's three chaos knobs.

    ``--fault-seed`` arms every stream at its chaos rate.  Without it,
    ``--service-fault-seed`` arms only the three OS-service streams, at the
    same rates, seeded with its own value; beside ``--fault-seed`` it does
    nothing, since those streams are already armed and the base plan's seed
    wins.  ``--compat-skew`` then pins the device pair's API matrix on
    whatever is armed.  Returns ``None`` when no knob is given -- the no-op
    plane.  The batch runner and the service daemon both build their plans
    here, so a submitted study spec reproduces exactly the plan the
    equivalent one-shot invocation would install.
    """
    if compat_skew is not None and not (0 <= compat_skew < BASE_WEAR_API):
        raise ValueError(
            f"compat skew must be in [0, {BASE_WEAR_API - 1}], got {compat_skew}"
        )
    plan: Optional[FaultPlan] = None
    if fault_seed is not None:
        plan = FaultPlan.chaos(seed=fault_seed)
    elif service_fault_seed is not None:
        service = (
            FaultKind.SERVICE_OUTAGE,
            FaultKind.SERVICE_CORRUPT,
            FaultKind.SYSTEM_RESTART,
        )
        plan = FaultPlan(
            seed=service_fault_seed,
            **{INTERVAL_FIELDS[kind]: CHAOS_INTERVALS_MS[kind] for kind in service},
        )
    if compat_skew is not None:
        base = plan if plan is not None else FaultPlan(seed=0)
        plan = dataclasses.replace(
            base,
            compat=CompatMatrix.from_skew(compat_skew),
            compat_mismatch_every_ms=CHAOS_INTERVALS_MS[FaultKind.COMPAT_MISMATCH],
        )
    return plan
