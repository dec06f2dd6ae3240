"""Hand-modelled health/fitness apps: the reboot-#1 app and the
GridViewPager legacy app.

Reboot #1, per the paper's post-mortem:

    "a sequence of malformed intents to a health app, which interacts with
    heart rate sensor using SensorManager class (rather than the more
    common Google Fit) provoked a system restart.  There were no exceptions
    raised before the crash, which means the malformed intents were not
    rejected by the app.  During the sequence of injections, the
    application experienced unresponsiveness (ANR) …"

:class:`HeartRateTrackerService` reproduces that mechanism: it registers a
heart-rate listener directly with ``SensorManager`` on first start, silently
absorbs mismatched intents (no exception, no rejection -- the missing input
validation is the defect), and after enough of them its handler wedges.
The resulting ANR, with sensor listeners held, triggers the SIGABRT /
SensorService-death / reboot escalation implemented in the sensor stack.

:class:`GridPagerLegacyActivity` is the un-migrated AW 1.x app whose
``ArithmeticException: divide by zero`` crash the paper highlights; it
genuinely drives the deprecated :class:`~repro.wear.ui_widgets.GridViewPager`
code path with an empty page grid.
"""

from __future__ import annotations

import functools
import warnings
from typing import TYPE_CHECKING

from repro.android.component import Activity, Service
from repro.android.intent import Intent
from repro.android.sensor import TYPE_HEART_RATE
from repro.android.jtypes import Throwable, frame
from repro.apps.behavior import BLOCK_MS, Trigger, trigger_matches
from repro.wear.ui_widgets import GridPagerAdapter, GridViewPager

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    pass

HEART_RATE_PACKAGE = "com.pulsetrack.wear"
GRID_PAGER_PACKAGE = "com.stridelog.wear"


class HeartRateTrackerService(Service):
    """The heart-rate service behind reboot #1.

    Parameters
    ----------
    wedge_deliveries:
        Mismatched intents absorbed before the handler blocks.  The paper's
        reboot manifested "at specific states of the device", not on a
        single intent; this threshold is that state.
    """

    def __init__(self, info, context, wedge_deliveries: int = 25) -> None:
        super().__init__(info, context)
        self.wedge_deliveries = wedge_deliveries
        self.mismatch_count = 0
        self._listening = False

    def on_handle_intent(self, intent: Intent, phase: str) -> float:
        if not self._listening:
            sensors = self.context.get_system_service("sensor")
            sensors.register_listener_by_type(TYPE_HEART_RATE)
            self._listening = True
        if trigger_matches(Trigger.ACTION_DATA_MISMATCH, intent, self.deliveries_so_far()):
            # Defect: the mismatch is neither rejected nor logged ("there
            # were no exceptions raised before the crash").  Each one leaves
            # a stale work item on the handler's queue...
            self.mismatch_count += 1
            if self.mismatch_count >= self.wedge_deliveries:
                # ...until the queue wedges and the main thread blocks.
                return BLOCK_MS
        return 1.2

    def deliveries_so_far(self) -> int:
        return self.start_count


class HeartRateDisplayActivity(Activity):
    """The companion UI of the heart-rate app.

    It keeps a binder to the sensor service; when the service dies (the
    SIGABRT in reboot #1) its pending reads surface as DeadObjectException,
    which this activity catches and logs -- putting the class into the
    reboot window for the root-cause analysis, as observed in Fig. 3b.
    """

    def __init__(self, info, context) -> None:
        super().__init__(info, context)
        sensor_service = context._device.sensor_service  # noqa: SLF001 - sim wiring
        sensor_service.process.link_to_death(self._on_sensor_death)

    def _on_sensor_death(self, process) -> None:
        from repro.android.jtypes import DeadObjectException, frame

        if getattr(self.context._device, "rebooting", False):
            # During a reboot our own process is being torn down too -- a
            # dead app cannot log; only the SIGABRT-kills-SensorService path
            # (the watch still running) produces the DeadObjectException.
            return
        exc = DeadObjectException("SensorService connection lost mid-read")
        exc.frames = [frame(self.info.name.class_name, "refreshHeartRate", 156)]
        self.context.logcat.handled_exception(
            "PulseTrack", self.context._pid(), exc, context="sensor read failed"
        )

    def on_handle_intent(self, intent: Intent, phase: str) -> float:
        return 1.0


class GridPagerLegacyActivity(Activity):
    """An AW 1.x activity that never migrated off ``GridViewPager``.

    A mismatched intent leaves its page model unpopulated; the subsequent
    layout pass divides by the (zero) column count inside the deprecated
    support-library widget -- the paper's highlighted ArithmeticException.
    """

    def on_handle_intent(self, intent: Intent, phase: str) -> float:
        if trigger_matches(Trigger.ACTION_DATA_MISMATCH, intent, 0):
            pages = [[]]  # the mismatch left the workout row unpopulated
        else:
            pages = [["summary", "pace", "heart-rate"]]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            pager = GridViewPager(GridPagerAdapter(pages))
        try:
            pager.page_for_scroll_offset(0, 160)  # ArithmeticException when empty
        except Throwable as exc:
            # Java stacks show the caller below the library frame; append
            # this activity's onCreate so the crash attributes to it.
            exc.frames = list(exc.frames) + [
                frame(self.info.name.class_name, "onCreate", 47)
            ]
            raise
        return 1.5


def _heart_rate_tracker_factory(info, ctx, wedge_deliveries: int = 25):
    return HeartRateTrackerService(info, ctx, wedge_deliveries=wedge_deliveries)


def register_health_factories(activity_manager, wedge_deliveries: int = 25) -> dict:
    """Register the custom health components; returns their behavior keys.

    Factories are module-level callables (plus a :func:`functools.partial`
    for the wedge threshold) so the activity manager holds no closures.
    """
    keys = {
        "heart_rate_service": "health.pulsetrack.tracker",
        "heart_rate_activity": "health.pulsetrack.display",
        "grid_pager_activity": "health.stridelog.gridpager",
    }
    activity_manager.register_factory(
        keys["heart_rate_service"],
        functools.partial(_heart_rate_tracker_factory, wedge_deliveries=wedge_deliveries),
    )
    activity_manager.register_factory(
        keys["heart_rate_activity"], HeartRateDisplayActivity
    )
    activity_manager.register_factory(
        keys["grid_pager_activity"], GridPagerLegacyActivity
    )
    return keys
