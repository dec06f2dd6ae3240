"""Per-device-tree runtime context: scoped fault and telemetry handles.

Historically the chaos plane (:mod:`repro.faults`) and the telemetry plane
(:mod:`repro.telemetry`) were process-wide module globals fetched at every
hook site.  One process, one device pair, one plane -- fine for a serial
study, fatal for a device farm: parallel shards each need their *own*
fault-plan execution stream and their own metrics registry, or schedules
and counters smear across shards and determinism dies.

:class:`RuntimeContext` is the seam.  Every object in one device tree
(device, logcat, process table, process records, binders, activity manager)
shares a single context, and each hook site asks the context -- not the
module -- for its plane:

* an **unbound** context falls back to the process-wide handle
  (``faults.get()`` / ``telemetry.get()``), so directly-constructed devices
  behave exactly as before and ``faults.session(...)`` keeps working;
* a **bound** context (what :mod:`repro.farm` builds per shard) pins the
  device tree to a scoped :class:`~repro.faults.plane.FaultPlane` and
  :class:`~repro.telemetry.Telemetry`, regardless of process-wide state.

A context is bound once, at construction, and never rebound.
"""

from __future__ import annotations

# The process-wide getters, resolved lazily (importing repro.faults or
# repro.telemetry at module scope would be circular) and then cached: the
# unbound fallback runs on every hook site of an unscoped device tree, and
# a per-call ``from repro import ...`` costs more than the hook itself.
_faults_get = None
_telemetry_get = None


def _resolve_getters() -> None:
    global _faults_get, _telemetry_get
    from repro import faults, telemetry

    _faults_get = faults.get
    _telemetry_get = telemetry.get


class RuntimeContext:
    """Scoped (or process-global-falling-back) fault/telemetry handles."""

    def __init__(self, fault_plane=None, telemetry_handle=None) -> None:
        self._fault_plane = fault_plane
        self._telemetry = telemetry_handle

    # -- resolution --------------------------------------------------------------
    @property
    def faults(self):
        """The fault plane this device tree answers to."""
        if self._fault_plane is not None:
            return self._fault_plane
        if _faults_get is None:
            _resolve_getters()
        return _faults_get()

    @property
    def telemetry(self):
        """The telemetry handle this device tree reports to."""
        if self._telemetry is not None:
            return self._telemetry
        if _telemetry_get is None:
            _resolve_getters()
        return _telemetry_get()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        bound = []
        if self._fault_plane is not None:
            bound.append("faults")
        if self._telemetry is not None:
            bound.append("telemetry")
        return f"<RuntimeContext bound={'+'.join(bound) or 'none'}>"
