"""The platform's intent-action vocabulary and data-URI types.

QGJ's generational campaigns draw from "over 100 different Actions and 12
types of data URI (e.g., https, http, tel)" (Table I).  This registry is
that vocabulary.  It serves two masters:

* the **fuzzer** (:mod:`repro.qgj.campaigns`) samples actions and URI types
  from it to build semi-valid, blank, random, and extras campaigns;
* the **app behaviour models** (:mod:`repro.apps.behavior`) consult it to
  decide whether an incoming action is *known* (parseable) and whether an
  {action, scheme} pair is *compatible* -- the distinction that separates
  campaign A's "valid parts, invalid combination" inputs from campaign C's
  outright garbage.

Keeping one shared table keeps the two sides honest: the fuzzer's notion of
"valid" is exactly the platform's.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional, Tuple

from repro.android.uri import Uri

# ---------------------------------------------------------------------------
# Actions.  Grouped the way the Android API groups them; 100+ total.
# ---------------------------------------------------------------------------

_STANDARD_ACTIVITY_ACTIONS: Tuple[str, ...] = (
    "android.intent.action.MAIN",
    "android.intent.action.VIEW",
    "android.intent.action.EDIT",
    "android.intent.action.PICK",
    "android.intent.action.DIAL",
    "android.intent.action.CALL",
    "android.intent.action.CALL_BUTTON",
    "android.intent.action.SEND",
    "android.intent.action.SENDTO",
    "android.intent.action.SEND_MULTIPLE",
    "android.intent.action.INSERT",
    "android.intent.action.INSERT_OR_EDIT",
    "android.intent.action.DELETE",
    "android.intent.action.GET_CONTENT",
    "android.intent.action.OPEN_DOCUMENT",
    "android.intent.action.CREATE_DOCUMENT",
    "android.intent.action.OPEN_DOCUMENT_TREE",
    "android.intent.action.ATTACH_DATA",
    "android.intent.action.RUN",
    "android.intent.action.SYNC",
    "android.intent.action.CHOOSER",
    "android.intent.action.ALL_APPS",
    "android.intent.action.SET_WALLPAPER",
    "android.intent.action.SEARCH",
    "android.intent.action.WEB_SEARCH",
    "android.intent.action.ASSIST",
    "android.intent.action.VOICE_COMMAND",
    "android.intent.action.FACTORY_TEST",
    "android.intent.action.SHOW_APP_INFO",
    "android.intent.action.PROCESS_TEXT",
    "android.intent.action.QUICK_VIEW",
    "android.intent.action.TRANSLATE",
    "android.intent.action.DEFINE",
    "android.intent.action.PASTE",
    "android.intent.action.MANAGE_NETWORK_USAGE",
    "android.intent.action.POWER_USAGE_SUMMARY",
)

_SETTINGS_ACTIONS: Tuple[str, ...] = (
    "android.settings.SETTINGS",
    "android.settings.WIFI_SETTINGS",
    "android.settings.BLUETOOTH_SETTINGS",
    "android.settings.DATE_SETTINGS",
    "android.settings.LOCALE_SETTINGS",
    "android.settings.INPUT_METHOD_SETTINGS",
    "android.settings.DISPLAY_SETTINGS",
    "android.settings.SOUND_SETTINGS",
    "android.settings.APPLICATION_SETTINGS",
    "android.settings.APPLICATION_DETAILS_SETTINGS",
    "android.settings.MANAGE_APPLICATIONS_SETTINGS",
    "android.settings.SECURITY_SETTINGS",
    "android.settings.LOCATION_SOURCE_SETTINGS",
    "android.settings.ACCESSIBILITY_SETTINGS",
    "android.settings.BATTERY_SAVER_SETTINGS",
    "android.settings.AIRPLANE_MODE_SETTINGS",
)

_MEDIA_ACTIONS: Tuple[str, ...] = (
    "android.media.action.IMAGE_CAPTURE",
    "android.media.action.VIDEO_CAPTURE",
    "android.media.action.STILL_IMAGE_CAMERA",
    "android.media.action.VIDEO_CAMERA",
    "android.media.action.MEDIA_PLAY_FROM_SEARCH",
    "android.intent.action.MEDIA_BUTTON",
    "android.intent.action.MUSIC_PLAYER",
    "android.provider.MediaStore.RECORD_SOUND",
)

_PROVIDER_ACTIONS: Tuple[str, ...] = (
    "android.provider.Telephony.SMS_RECEIVED",
    "android.provider.Telephony.SMS_DELIVER",
    "android.provider.Contacts.SEARCH_SUGGESTION_CLICKED",
    "android.provider.calendar.action.HANDLE_CUSTOM_EVENT",
    "android.provider.action.QUICK_CONTACT",
    "android.app.action.ADD_DEVICE_ADMIN",
    "android.app.action.SET_NEW_PASSWORD",
    "android.appwidget.action.APPWIDGET_CONFIGURE",
    "android.appwidget.action.APPWIDGET_UPDATE",
    "android.nfc.action.NDEF_DISCOVERED",
    "android.nfc.action.TAG_DISCOVERED",
    "android.speech.action.RECOGNIZE_SPEECH",
    "android.speech.action.WEB_SEARCH",
    "android.speech.tts.engine.CHECK_TTS_DATA",
    "android.bluetooth.adapter.action.REQUEST_ENABLE",
    "android.bluetooth.adapter.action.REQUEST_DISCOVERABLE",
)

_BROADCAST_ACTIONS: Tuple[str, ...] = (
    # Protected broadcast actions (see repro.android.permissions); QGJ sends
    # them anyway -- provoking the SecurityExceptions that dominate the logs.
    "android.intent.action.BATTERY_LOW",
    "android.intent.action.BATTERY_OKAY",
    "android.intent.action.BATTERY_CHANGED",
    "android.intent.action.BOOT_COMPLETED",
    "android.intent.action.LOCKED_BOOT_COMPLETED",
    "android.intent.action.DEVICE_STORAGE_LOW",
    "android.intent.action.DEVICE_STORAGE_OK",
    "android.intent.action.ACTION_POWER_CONNECTED",
    "android.intent.action.ACTION_POWER_DISCONNECTED",
    "android.intent.action.ACTION_SHUTDOWN",
    "android.intent.action.REBOOT",
    "android.intent.action.MEDIA_MOUNTED",
    "android.intent.action.MEDIA_UNMOUNTED",
    "android.intent.action.MEDIA_REMOVED",
    "android.intent.action.MEDIA_EJECT",
    "android.intent.action.PACKAGE_ADDED",
    "android.intent.action.PACKAGE_REMOVED",
    "android.intent.action.PACKAGE_REPLACED",
    "android.intent.action.PACKAGE_RESTARTED",
    "android.intent.action.PACKAGE_DATA_CLEARED",
    "android.intent.action.UID_REMOVED",
    "android.intent.action.CONFIGURATION_CHANGED",
    "android.intent.action.LOCALE_CHANGED",
    "android.intent.action.TIMEZONE_CHANGED",
    "android.intent.action.TIME_SET",
    "android.intent.action.DATE_CHANGED",
    "android.intent.action.USER_PRESENT",
    "android.intent.action.SCREEN_ON",
    "android.intent.action.SCREEN_OFF",
    "android.intent.action.DREAMING_STARTED",
    "android.intent.action.DREAMING_STOPPED",
    "android.intent.action.AIRPLANE_MODE",
    "android.intent.action.NEW_OUTGOING_CALL",
    "android.intent.action.MY_PACKAGE_REPLACED",
    "android.net.conn.CONNECTIVITY_CHANGE",
    "android.net.wifi.STATE_CHANGE",
    "android.net.wifi.WIFI_STATE_CHANGED",
    "android.bluetooth.adapter.action.STATE_CHANGED",
    "android.bluetooth.device.action.ACL_CONNECTED",
    "android.bluetooth.device.action.ACL_DISCONNECTED",
    "android.os.action.DEVICE_IDLE_MODE_CHANGED",
    "android.os.action.POWER_SAVE_MODE_CHANGED",
)

#: The Wear system's own broadcasts, protected like the ones above.
_CLOCKWORK_BROADCASTS: Tuple[str, ...] = (
    "com.google.android.clockwork.action.AMBIENT_STARTED",
    "com.google.android.clockwork.action.AMBIENT_STOPPED",
    "com.google.android.clockwork.home.action.RETAIL_MODE",
)

_WEAR_ACTIONS: Tuple[str, ...] = _CLOCKWORK_BROADCASTS + (
    "com.google.android.wearable.action.VOICE_INPUT",
    "com.google.android.gms.fitness.TRACK",
    "com.google.android.gms.fitness.VIEW",
    "com.google.android.gms.fitness.VIEW_GOAL",
    "vnd.google.fitness.ACTION_ALL_APP",
    "vnd.google.fitness.TRACK",
    "vnd.google.fitness.VIEW",
    "android.support.wearable.complications.ACTION_COMPLICATION_UPDATE_REQUEST",
)

#: Every action QGJ knows, in a deterministic order.
ALL_ACTIONS: Tuple[str, ...] = (
    _STANDARD_ACTIVITY_ACTIONS
    + _SETTINGS_ACTIONS
    + _MEDIA_ACTIONS
    + _PROVIDER_ACTIONS
    + _BROADCAST_ACTIONS
    + _WEAR_ACTIONS
)

KNOWN_ACTIONS: FrozenSet[str] = frozenset(ALL_ACTIONS)

#: The actions only the system may send (see :mod:`repro.android.permissions`).
PROTECTED_BROADCASTS: Tuple[str, ...] = _BROADCAST_ACTIONS + _CLOCKWORK_BROADCASTS

# ---------------------------------------------------------------------------
# Data URI types.  Twelve, as in the paper, each with a canonical sample.
# ---------------------------------------------------------------------------

URI_SAMPLES: Dict[str, str] = {
    "https": "https://foo.com/",
    "http": "http://foo.com/index.html",
    "tel": "tel:123",
    "sms": "sms:5551234",
    "smsto": "smsto:5551234",
    "mailto": "mailto:someone@example.com",
    "content": "content://contacts/people/1",
    "file": "file:///sdcard/download/report.pdf",
    "geo": "geo:40.4237,-86.9212",
    "market": "market://details?id=com.example",
    "voicemail": "voicemail:",
    "ssh": "ssh://host.example.com:22",
}

URI_TYPES: Tuple[str, ...] = tuple(URI_SAMPLES)

assert len(URI_TYPES) == 12, "the paper configures exactly 12 data URI types"

# ---------------------------------------------------------------------------
# Action/scheme compatibility: campaign A's "the combination of them may be
# invalid" is defined against this table, and campaign D's valid pairs are
# drawn from it.
# ---------------------------------------------------------------------------

_COMPATIBLE: Dict[str, FrozenSet[str]] = {
    "android.intent.action.VIEW": frozenset(
        {"https", "http", "content", "file", "geo", "market", "tel", "mailto"}
    ),
    "android.intent.action.EDIT": frozenset({"content", "file"}),
    "android.intent.action.PICK": frozenset({"content"}),
    "android.intent.action.DIAL": frozenset({"tel", "voicemail"}),
    "android.intent.action.CALL": frozenset({"tel", "voicemail"}),
    "android.intent.action.SENDTO": frozenset({"sms", "smsto", "mailto"}),
    "android.intent.action.SEND": frozenset({"content", "file", "mailto"}),
    "android.intent.action.INSERT": frozenset({"content"}),
    "android.intent.action.INSERT_OR_EDIT": frozenset({"content"}),
    "android.intent.action.DELETE": frozenset({"content"}),
    "android.intent.action.GET_CONTENT": frozenset({"content"}),
    "android.intent.action.ATTACH_DATA": frozenset({"content", "file"}),
    "android.intent.action.WEB_SEARCH": frozenset({"https", "http"}),
    "android.intent.action.QUICK_VIEW": frozenset({"content", "file"}),
    "android.media.action.MEDIA_PLAY_FROM_SEARCH": frozenset({"content", "file", "https", "http"}),
    "com.google.android.gms.fitness.VIEW": frozenset({"content"}),
    "vnd.google.fitness.VIEW": frozenset({"content"}),
    "vnd.google.fitness.TRACK": frozenset({"content"}),
}

#: Default compatibility for actions without an explicit entry: they take no
#: data at all, so *any* data URI is an incompatible combination.
NO_DATA: FrozenSet[str] = frozenset()


def compatible_schemes(action: str) -> FrozenSet[str]:
    """Schemes valid with *action* (empty set: action takes no data)."""
    return _COMPATIBLE.get(action, NO_DATA)


def is_known_action(action: Optional[str]) -> bool:
    return action is not None and action in KNOWN_ACTIONS


def is_known_scheme(scheme: Optional[str]) -> bool:
    return scheme is not None and scheme in URI_SAMPLES


def is_compatible(action: Optional[str], data: Optional[Uri]) -> bool:
    """Is {action, data} a *valid pair* in the platform's eyes?

    ``None`` data is compatible with any action; data with an action that
    takes no data -- or with a scheme outside the action's set -- is not.
    """
    if action is None or data is None:
        return True
    if not is_known_action(action):
        return False
    return data.scheme in compatible_schemes(action)


def valid_pairs() -> Tuple[Tuple[str, str], ...]:
    """Every (action, sample data string) pair, for campaign D."""
    pairs = []
    for action in ALL_ACTIONS:
        schemes = compatible_schemes(action)
        for scheme in sorted(schemes):
            pairs.append((action, URI_SAMPLES[scheme]))
        if not schemes:
            # Actions without data still form a valid pair with "no data";
            # campaign D represents that as an empty data field.
            pairs.append((action, ""))
    return tuple(pairs)
