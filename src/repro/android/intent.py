"""Intents, component names, and intent-filter matching.

The intent is the paper's unit of injection: QGJ builds ~1.5M of them and
fires them at Activity and Service components.  This module models the parts
of ``android.content.Intent`` the study exercises:

* the five basic fields -- action, data URI, category, MIME type, component --
  plus typed extras and launch flags;
* *explicit* resolution (``cmp=`` names the target class), which is the only
  kind QGJ sends;
* *implicit* intent-filter matching (action / category / data tests), which
  the package manager uses for launcher lookups and which QGJ-UI's monkey
  relies on;
* the exact ``Intent { act=… dat=… cmp=… (has extras) }`` rendering used in
  Android logs, because our analysis pipeline reads interactions back out of
  log text.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.android.uri import Uri

# Categories used throughout the framework.
CATEGORY_DEFAULT = "android.intent.category.DEFAULT"
CATEGORY_LAUNCHER = "android.intent.category.LAUNCHER"
CATEGORY_HOME = "android.intent.category.HOME"
CATEGORY_BROWSABLE = "android.intent.category.BROWSABLE"

# Flags relevant to the simulation.
FLAG_ACTIVITY_NEW_TASK = 0x10000000
FLAG_ACTIVITY_CLEAR_TOP = 0x04000000
FLAG_INCLUDE_STOPPED_PACKAGES = 0x00000020


@dataclasses.dataclass(frozen=True, order=True)
class ComponentName:
    """``package/class`` pair identifying one app component."""

    package: str
    class_name: str

    @staticmethod
    def parse(flat: str) -> "ComponentName":
        """Parse ``com.foo/.Bar`` or ``com.foo/com.foo.Bar``."""
        if "/" not in flat:
            raise ValueError(f"not a component name: {flat!r}")
        package, _, cls = flat.partition("/")
        if not package or not cls:
            raise ValueError(f"not a component name: {flat!r}")
        if cls.startswith("."):
            cls = package + cls
        return ComponentName(package=package, class_name=cls)

    def flatten_to_short_string(self) -> str:
        if self.class_name.startswith(self.package + "."):
            return f"{self.package}/{self.class_name[len(self.package):]}"
        return f"{self.package}/{self.class_name}"

    def flatten_to_string(self) -> str:
        return f"{self.package}/{self.class_name}"

    @property
    def simple_class(self) -> str:
        return self.class_name.rsplit(".", 1)[-1]

    def __str__(self) -> str:
        return self.flatten_to_string()


#: Extra value types the simulator recognises.  Campaign D puts "random
#: values" into extras; the behaviour models care about the type tags because
#: type confusion is one of the failure modes (ClassCastException).
ExtraValue = Any


class Intent:
    """A mutable intent, built fluently like on Android.

    ``Intent("android.intent.action.VIEW").set_data_string("tel:123")``

    Data set as text stays text until :attr:`data` or :attr:`scheme` first
    reads it; :attr:`data_string`, :meth:`to_log_string` and
    :meth:`signature` use the text, so an intent the system rejects before
    any app reads it never parses its URI.
    """

    def __init__(
        self,
        action: Optional[str] = None,
        data: Union[str, Uri, None] = None,
        component: Optional[ComponentName] = None,
    ) -> None:
        if data is not None and not isinstance(data, (str, Uri)):
            raise TypeError(f"Intent data must be str or Uri, got {type(data).__name__}")
        self.action = action
        #: The data URI, or its text until first read; ``None`` when absent.
        self._data: Union[str, Uri, None] = data
        self.component = component
        self.categories: List[str] = []
        self.mime_type: Optional[str] = None
        self.extras: Dict[str, ExtraValue] = {}
        self.flags: int = 0

    # -- builders ---------------------------------------------------------------
    def set_action(self, action: Optional[str]) -> "Intent":
        self.action = action
        return self

    def set_data(self, uri: Optional[Uri]) -> "Intent":
        self._data = uri
        return self

    def set_data_string(self, text: Optional[str]) -> "Intent":
        if text is not None and not isinstance(text, str):
            raise TypeError(f"Intent data must be str, got {type(text).__name__}")
        self._data = text
        return self

    def set_component(self, component: Optional[ComponentName]) -> "Intent":
        self.component = component
        return self

    def set_class_name(self, package: str, class_name: str) -> "Intent":
        return self.set_component(ComponentName(package, class_name))

    def add_category(self, category: str) -> "Intent":
        if category not in self.categories:
            self.categories.append(category)
        return self

    def set_type(self, mime: Optional[str]) -> "Intent":
        self.mime_type = mime
        return self

    def put_extra(self, key: str, value: ExtraValue) -> "Intent":
        self.extras[key] = value
        return self

    def put_extras(self, mapping: Mapping[str, ExtraValue]) -> "Intent":
        self.extras.update(mapping)
        return self

    def add_flags(self, flags: int) -> "Intent":
        self.flags |= flags
        return self

    # -- accessors -------------------------------------------------------------
    @property
    def data(self) -> Optional[Uri]:
        data = self._data
        if isinstance(data, str):
            data = self._data = Uri.parse(data)
        return data

    @property
    def data_string(self) -> Optional[str]:
        return None if self._data is None else str(self._data)

    @property
    def scheme(self) -> Optional[str]:
        data = self.data
        return None if data is None else data.scheme

    def get_extra(self, key: str, default: ExtraValue = None) -> ExtraValue:
        return self.extras.get(key, default)

    def has_extra(self, key: str) -> bool:
        return key in self.extras

    def is_explicit(self) -> bool:
        return self.component is not None

    def copy(self) -> "Intent":
        clone = Intent(self.action)
        clone._data = self._data
        clone.component = self.component
        clone.categories = list(self.categories)
        clone.mime_type = self.mime_type
        clone.extras = dict(self.extras)
        clone.flags = self.flags
        return clone

    # -- rendering ---------------------------------------------------------------
    def to_log_string(self) -> str:
        """Render like ``Intent.toString()``; the analysis parses this form."""
        parts: List[str] = []
        if self.action is not None:
            parts.append(f"act={self.action}")
        if self.categories:
            parts.append("cat=[" + ",".join(self.categories) + "]")
        if self._data is not None:
            parts.append(f"dat={self._data}")
        if self.mime_type is not None:
            parts.append(f"typ={self.mime_type}")
        if self.flags:
            parts.append(f"flg=0x{self.flags:x}")
        if self.component is not None:
            parts.append(f"cmp={self.component.flatten_to_short_string()}")
        if self.extras:
            parts.append("(has extras)")
        return "Intent { " + " ".join(parts) + " }"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self.to_log_string()

    # -- feature extraction for behaviour models -----------------------------------
    def signature(self) -> Tuple:
        """A hashable digest of the fields that behaviour models key on."""
        return (
            self.action,
            self.data_string,
            self.mime_type,
            tuple(sorted(self.categories)),
            tuple(sorted((k, type(v).__name__) for k, v in self.extras.items())),
            None if self.component is None else self.component.flatten_to_string(),
        )


class IntentFilter:
    """Action/category/data tests, matching Android's resolution rules.

    Only the subset the study needs is implemented: action membership,
    category subset test, and data matching on scheme and MIME type.
    """

    def __init__(
        self,
        actions: Iterable[str] = (),
        categories: Iterable[str] = (),
        schemes: Iterable[str] = (),
        mime_types: Iterable[str] = (),
    ) -> None:
        self.actions: List[str] = list(actions)
        self.categories: List[str] = list(categories)
        self.schemes: List[str] = list(schemes)
        self.mime_types: List[str] = list(mime_types)

    # Match result codes (subset of Android's).
    NO_MATCH_ACTION = -3
    NO_MATCH_CATEGORY = -4
    NO_MATCH_DATA = -2
    MATCH_CATEGORY_EMPTY = 0x100000
    MATCH_CATEGORY_SCHEME = 0x200000
    MATCH_CATEGORY_TYPE = 0x600000

    def match_action(self, action: Optional[str]) -> bool:
        if action is None:
            # Android: a null action matches any filter that has >=1 action.
            return bool(self.actions)
        return action in self.actions

    def match_categories(self, categories: Sequence[str]) -> bool:
        return all(c in self.categories for c in categories)

    def _match_mime(self, mime: str) -> bool:
        for declared in self.mime_types:
            if declared == mime:
                return True
            if declared.endswith("/*") and mime.split("/", 1)[0] == declared.split("/", 1)[0]:
                return True
            if declared == "*/*":
                return True
        return False

    def match_data(self, data: Optional[Uri], mime: Optional[str]) -> int:
        if not self.schemes and not self.mime_types:
            if data is None and mime is None:
                return self.MATCH_CATEGORY_EMPTY
            return self.NO_MATCH_DATA
        if self.schemes:
            if data is None or data.scheme not in self.schemes:
                return self.NO_MATCH_DATA
            if not self.mime_types:
                return self.MATCH_CATEGORY_SCHEME
        if self.mime_types:
            if mime is None or not self._match_mime(mime):
                return self.NO_MATCH_DATA
            return self.MATCH_CATEGORY_TYPE
        return self.MATCH_CATEGORY_SCHEME

    def match(self, intent: Intent) -> int:
        """Full filter match; >= 0 means success (higher is more specific)."""
        if not self.match_action(intent.action):
            return self.NO_MATCH_ACTION
        if not self.match_categories(intent.categories):
            return self.NO_MATCH_CATEGORY
        return self.match_data(intent.data, intent.mime_type)

    def matches(self, intent: Intent) -> bool:
        return self.match(intent) >= 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"IntentFilter(actions={self.actions!r}, categories={self.categories!r}, "
            f"schemes={self.schemes!r}, mime_types={self.mime_types!r})"
        )


def launcher_filter() -> IntentFilter:
    """The filter every launcher activity declares."""
    return IntentFilter(
        actions=["android.intent.action.MAIN"],
        categories=[CATEGORY_LAUNCHER, CATEGORY_DEFAULT],
    )
