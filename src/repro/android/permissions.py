"""The Android permission model, as far as the fuzz study exercises it.

QGJ is deliberately an *unprivileged* tool -- the paper stresses it needs no
root.  A large slice of its injected intents are therefore rejected by the
system before any app code runs: 81.3% of all exceptions observed in the
study were ``SecurityException``s, thrown when a mutated intent used an
action reserved for privileged OS processes (e.g. ``ACTION_BATTERY_LOW``) or
targeted a component guarded by a permission the sender does not hold.

This module provides:

* a registry of permissions with Android's protection levels,
* the set of *protected* system actions that only the OS may send,
* per-package grant tracking and the ``checkPermission`` entry points the
  activity manager consults before delivering an intent.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Dict, FrozenSet, Iterable, Optional, Set

from repro.android.actions import PROTECTED_BROADCASTS


class ProtectionLevel(enum.Enum):
    """Android permission protection levels (simplified)."""

    NORMAL = "normal"
    DANGEROUS = "dangerous"
    SIGNATURE = "signature"
    PRIVILEGED = "signature|privileged"


@dataclasses.dataclass(frozen=True)
class Permission:
    name: str
    level: ProtectionLevel = ProtectionLevel.NORMAL
    description: str = ""


#: Actions only the system may originate.  Sending one from an unprivileged
#: app raises SecurityException at the activity-manager boundary -- "the
#: specified and secure behavior" per the paper.
PROTECTED_ACTIONS: FrozenSet[str] = frozenset(PROTECTED_BROADCASTS)

#: Well-known permission objects, indexed by name.
_WELL_KNOWN = [
    Permission("android.permission.INTERNET", ProtectionLevel.NORMAL),
    Permission("android.permission.VIBRATE", ProtectionLevel.NORMAL),
    Permission("android.permission.WAKE_LOCK", ProtectionLevel.NORMAL),
    Permission("android.permission.BLUETOOTH", ProtectionLevel.NORMAL),
    Permission("android.permission.BODY_SENSORS", ProtectionLevel.DANGEROUS),
    Permission("android.permission.READ_CONTACTS", ProtectionLevel.DANGEROUS),
    Permission("android.permission.WRITE_CONTACTS", ProtectionLevel.DANGEROUS),
    Permission("android.permission.CALL_PHONE", ProtectionLevel.DANGEROUS),
    Permission("android.permission.READ_CALENDAR", ProtectionLevel.DANGEROUS),
    Permission("android.permission.WRITE_CALENDAR", ProtectionLevel.DANGEROUS),
    Permission("android.permission.ACCESS_FINE_LOCATION", ProtectionLevel.DANGEROUS),
    Permission("android.permission.RECORD_AUDIO", ProtectionLevel.DANGEROUS),
    Permission("android.permission.CAMERA", ProtectionLevel.DANGEROUS),
    Permission("android.permission.ACTIVITY_RECOGNITION", ProtectionLevel.DANGEROUS),
    Permission("android.permission.REBOOT", ProtectionLevel.PRIVILEGED),
    Permission("android.permission.SHUTDOWN", ProtectionLevel.PRIVILEGED),
    Permission("android.permission.DEVICE_POWER", ProtectionLevel.SIGNATURE),
    Permission("android.permission.BIND_DEVICE_ADMIN", ProtectionLevel.SIGNATURE),
    Permission("android.permission.WRITE_SECURE_SETTINGS", ProtectionLevel.PRIVILEGED),
    Permission("android.permission.INSTALL_PACKAGES", ProtectionLevel.PRIVILEGED),
    Permission("com.google.android.wearable.permission.BIND_COMPLICATION_PROVIDER", ProtectionLevel.SIGNATURE),
    Permission("com.google.android.clockwork.permission.AMBIENT", ProtectionLevel.SIGNATURE),
    Permission("com.google.android.fitness.permission.FITNESS_DATA", ProtectionLevel.DANGEROUS),
]

PERMISSION_GRANTED = 0
PERMISSION_DENIED = -1


class PermissionManager:
    """Tracks declared permissions and per-package grants."""

    def __init__(self) -> None:
        self._permissions: Dict[str, Permission] = {p.name: p for p in _WELL_KNOWN}
        self._grants: Dict[str, Set[str]] = {}
        self._privileged_packages: Set[str] = {"android", "com.android.systemui"}

    # -- declaration -------------------------------------------------------------
    def declare(self, permission: Permission) -> None:
        """Register a custom (app-declared) permission."""
        self._permissions[permission.name] = permission

    def is_known(self, name: str) -> bool:
        return name in self._permissions

    def get(self, name: str) -> Optional[Permission]:
        return self._permissions.get(name)

    def all_names(self) -> Iterable[str]:
        return tuple(self._permissions)

    # -- grants ----------------------------------------------------------------
    def grant(self, package: str, permission_name: str) -> None:
        """Grant *permission_name* to *package*.

        Unknown permissions are rejected the way ``pm grant`` rejects them --
        the paper calls this out as an example of good input validation.
        """
        if permission_name not in self._permissions:
            raise ValueError(f"Unknown permission: {permission_name}")
        self._grants.setdefault(package, set()).add(permission_name)

    def revoke(self, package: str, permission_name: str) -> None:
        self._grants.get(package, set()).discard(permission_name)

    def mark_privileged(self, package: str) -> None:
        """System/priv-app packages may send protected actions."""
        self._privileged_packages.add(package)

    def is_privileged(self, package: str) -> bool:
        return package in self._privileged_packages

    # -- checks ----------------------------------------------------------------
    def check_permission(self, package: str, permission_name: str) -> int:
        """``PackageManager.checkPermission`` analogue."""
        if self.is_privileged(package):
            return PERMISSION_GRANTED
        if permission_name in self._grants.get(package, set()):
            perm = self._permissions.get(permission_name)
            if perm is not None and perm.level in (
                ProtectionLevel.SIGNATURE,
                ProtectionLevel.PRIVILEGED,
            ):
                # Third-party grants of signature permissions never take
                # effect; only the platform signature satisfies them.
                return PERMISSION_DENIED
            return PERMISSION_GRANTED
        return PERMISSION_DENIED

    def is_protected_action(self, action: Optional[str]) -> bool:
        return action is not None and action in PROTECTED_ACTIONS

    def may_send_action(self, sender_package: str, action: Optional[str]) -> bool:
        """May *sender_package* originate an intent with *action*?"""
        if not self.is_protected_action(action):
            return True
        return self.is_privileged(sender_package)

    def granted_permissions(self, package: str) -> FrozenSet[str]:
        return frozenset(self._grants.get(package, set()))
