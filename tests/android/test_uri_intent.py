"""Tests for URI parsing and intent construction / filter matching."""

import pytest
from hypothesis import given, strategies as st

from repro.android.intent import (
    CATEGORY_DEFAULT,
    CATEGORY_LAUNCHER,
    ComponentName,
    Intent,
    IntentFilter,
    launcher_filter,
)
from repro.android.uri import Uri, build_hierarchical, build_opaque, scheme_of


class TestUriParsing:
    def test_hierarchical_full(self):
        uri = Uri.parse("https://example.com/path/to?q=1#frag")
        assert uri.scheme == "https"
        assert uri.authority == "example.com"
        assert uri.path == "/path/to"
        assert uri.query == "q=1"
        assert uri.fragment == "frag"
        assert uri.is_hierarchical()

    def test_opaque_tel(self):
        uri = Uri.parse("tel:123")
        assert uri.scheme == "tel"
        assert uri.opaque_part == "123"
        assert uri.is_opaque()

    def test_mailto(self):
        uri = Uri.parse("mailto:someone@example.com")
        assert uri.scheme == "mailto"
        assert uri.opaque_part == "someone@example.com"

    def test_no_scheme_garbage(self):
        uri = Uri.parse("just some garbage")
        assert uri.scheme is None
        assert not uri.is_well_formed()

    def test_invalid_scheme_chars_treated_opaque(self):
        uri = Uri.parse("S0me.r@ndom:$trinG")
        # '@' in the candidate scheme invalidates it.
        assert uri.scheme is None

    def test_numeric_first_char_not_scheme(self):
        assert Uri.parse("1http:foo").scheme is None

    def test_empty_string(self):
        uri = Uri.parse("")
        assert uri.scheme is None
        assert uri.opaque_part is None

    def test_authority_only(self):
        uri = Uri.parse("content://contacts")
        assert uri.authority == "contacts"
        assert uri.path is None

    def test_query_parameters(self):
        uri = Uri.parse("https://h/p?a=1&b=2&flag")
        assert uri.query_parameters() == {"a": "1", "b": "2", "flag": ""}

    def test_last_path_segment(self):
        assert Uri.parse("content://contacts/people/7").last_path_segment() == "7"
        assert Uri.parse("content://contacts").last_path_segment() is None

    def test_round_trip_str(self):
        text = "https://example.com/a?b=c#d"
        assert str(Uri.parse(text)) == text

    def test_build_hierarchical(self):
        uri = build_hierarchical("content", "calendar", "events/5")
        assert str(uri) == "content://calendar/events/5"
        assert uri.last_path_segment() == "5"

    def test_build_opaque(self):
        assert str(build_opaque("sms", "5551234")) == "sms:5551234"

    def test_scheme_of(self):
        assert scheme_of("tel:1") == "tel"
        assert scheme_of("") is None
        assert scheme_of(None) is None

    def test_parse_rejects_non_str(self):
        with pytest.raises(TypeError):
            Uri.parse(123)  # type: ignore[arg-type]

    @given(st.text(max_size=200))
    def test_parse_never_raises(self, text):
        uri = Uri.parse(text)
        assert str(uri) == text

    @given(st.text(alphabet=st.characters(blacklist_characters="#?/"), max_size=50))
    def test_hierarchical_round_trip(self, authority):
        text = f"https://{authority}/p"
        uri = Uri.parse(text)
        assert uri.scheme == "https"
        assert uri.path == "/p"


class TestComponentName:
    def test_parse_full(self):
        cn = ComponentName.parse("com.foo/com.foo.Bar")
        assert cn.package == "com.foo"
        assert cn.class_name == "com.foo.Bar"

    def test_parse_shorthand(self):
        cn = ComponentName.parse("com.foo/.Bar")
        assert cn.class_name == "com.foo.Bar"

    def test_flatten_short(self):
        cn = ComponentName("com.foo", "com.foo.Bar")
        assert cn.flatten_to_short_string() == "com.foo/.Bar"

    def test_flatten_full_when_foreign_class(self):
        cn = ComponentName("com.foo", "org.lib.Widget")
        assert cn.flatten_to_short_string() == "com.foo/org.lib.Widget"

    def test_parse_invalid(self):
        with pytest.raises(ValueError):
            ComponentName.parse("no-slash-here")
        with pytest.raises(ValueError):
            ComponentName.parse("/onlyclass")

    def test_simple_class(self):
        assert ComponentName("a.b", "a.b.c.MainActivity").simple_class == "MainActivity"

    def test_round_trip(self):
        cn = ComponentName("com.x.y", "com.x.y.Z")
        assert ComponentName.parse(cn.flatten_to_string()) == cn


class TestIntent:
    def test_fluent_build(self):
        intent = (
            Intent("android.intent.action.VIEW")
            .set_data_string("https://example.com/")
            .add_category(CATEGORY_DEFAULT)
            .put_extra("k", 1)
        )
        assert intent.action == "android.intent.action.VIEW"
        assert intent.scheme == "https"
        assert intent.get_extra("k") == 1
        assert not intent.is_explicit()

    def test_explicit(self):
        intent = Intent().set_class_name("com.foo", "com.foo.Bar")
        assert intent.is_explicit()
        assert intent.component.simple_class == "Bar"

    def test_log_string_matches_android_format(self):
        intent = Intent("android.intent.action.DIAL", data="tel:123")
        intent.set_component(ComponentName("com.foo", "com.foo.Bar"))
        intent.put_extra("x", "y")
        text = intent.to_log_string()
        assert text.startswith("Intent { ")
        assert "act=android.intent.action.DIAL" in text
        assert "dat=tel:123" in text
        assert "cmp=com.foo/.Bar" in text
        assert "(has extras)" in text

    def test_log_string_blank_intent(self):
        assert Intent().to_log_string() == "Intent {  }"

    def test_copy_is_deep_enough(self):
        intent = Intent("a").put_extra("k", "v").add_category("c")
        clone = intent.copy()
        clone.put_extra("k2", "v2")
        clone.add_category("c2")
        assert "k2" not in intent.extras
        assert "c2" not in intent.categories

    def test_signature_ignores_extra_values_but_keeps_types(self):
        a = Intent("x").put_extra("k", 1)
        b = Intent("x").put_extra("k", 2)
        c = Intent("x").put_extra("k", "s")
        assert a.signature() == b.signature()
        assert a.signature() != c.signature()

    def test_category_dedup(self):
        intent = Intent().add_category("c").add_category("c")
        assert intent.categories == ["c"]


#: Data text for the first-read property: arbitrary text plus the shapes
#: the parser branches on (empty, fragment only, bare hierarchy marker).
_DATA_TEXT = st.one_of(
    st.sampled_from(["", "#", "://", "#://", "tel:", ":", "1http:x", "a://b/c?d#e", "tel:1#"]),
    st.text(alphabet="ab1:/#?.@ ", max_size=20),
    st.text(max_size=40),
)

_FILTERS = (
    IntentFilter(actions=["a"]),
    IntentFilter(actions=["a"], schemes=["tel", "https"]),
    IntentFilter(actions=["a"], schemes=["a", "ab", "b"]),
    IntentFilter(actions=["a"], schemes=["content"], mime_types=["text/plain"]),
    IntentFilter(actions=["a"], mime_types=["text/*"]),
)

_VIEWS = {
    "data": lambda i: i.data,
    "scheme": lambda i: i.scheme,
    "data_string": lambda i: i.data_string,
    "to_log_string": lambda i: i.to_log_string(),
    "signature": lambda i: i.signature(),
    "copy": lambda i: (
        i.copy().data_string,
        i.copy().to_log_string(),
        i.copy().signature(),
        i.copy().data,
    ),
    "match": lambda i: [f.match(i) for f in _FILTERS],
}


class TestDataParsedOnFirstRead:
    """Data set as text is parsed only when something reads the ``Uri``;
    no reader can tell it apart from data set as ``Uri.parse(text)``."""

    @given(_DATA_TEXT, st.sampled_from([None, "text/plain"]))
    def test_text_data_matches_parsed_data(self, text, mime):
        component = ComponentName("com.x", "com.x.Main")

        def as_text():
            return Intent("a", text, component).set_type(mime).put_extra("k", 1)

        def via_setter():
            intent = Intent("a").set_data_string(text).set_type(mime).put_extra("k", 1)
            return intent.set_component(component)

        parsed = Intent("a", component=component).set_data(Uri.parse(text))
        parsed.set_type(mime).put_extra("k", 1)
        for name, view in _VIEWS.items():
            # A fresh intent per view, so each one reads the data unparsed.
            assert view(as_text()) == view(parsed), name
            assert view(via_setter()) == view(parsed), name

    @given(_DATA_TEXT)
    def test_reads_after_the_first_agree(self, text):
        intent = Intent("a", text)
        first = intent.data
        assert intent.data is first
        assert intent.data_string == text
        assert intent.to_log_string() == Intent("a", Uri.parse(text)).to_log_string()

    @pytest.mark.parametrize("bad", [123, b"tel:1", 1.5, ["tel:1"]])
    def test_non_str_data_raises_when_set(self, bad):
        with pytest.raises(TypeError):
            Intent("a", bad)
        with pytest.raises(TypeError):
            Intent("a").set_data_string(bad)

    def test_blank_data_is_kept(self):
        intent = Intent("a", "")
        assert intent.data_string == ""
        assert "dat= " in intent.to_log_string()
        assert intent.data == Uri.parse("")


class TestIntentFilter:
    def test_action_match(self):
        filt = IntentFilter(actions=["a.b.VIEW"], categories=[CATEGORY_DEFAULT])
        assert filt.matches(Intent("a.b.VIEW"))
        assert not filt.matches(Intent("a.b.EDIT"))

    def test_null_action_matches_any_filter_with_actions(self):
        filt = IntentFilter(actions=["a.b.VIEW"])
        assert filt.match_action(None)

    def test_category_subset_rule(self):
        filt = IntentFilter(actions=["a"], categories=["c1", "c2"])
        assert filt.matches(Intent("a").add_category("c1"))
        assert not filt.matches(Intent("a").add_category("c3"))

    def test_data_scheme_match(self):
        filt = IntentFilter(actions=["a"], schemes=["https", "http"])
        assert filt.matches(Intent("a", data="https://x/"))
        assert not filt.matches(Intent("a", data="tel:1"))
        assert not filt.matches(Intent("a"))

    def test_no_data_filter_rejects_data(self):
        filt = IntentFilter(actions=["a"])
        assert filt.matches(Intent("a"))
        assert not filt.matches(Intent("a", data="tel:1"))

    def test_mime_wildcard(self):
        filt = IntentFilter(actions=["a"], mime_types=["image/*"])
        assert filt.matches(Intent("a").set_type("image/png"))
        assert not filt.matches(Intent("a").set_type("text/plain"))

    def test_mime_specificity_beats_scheme(self):
        filt = IntentFilter(actions=["a"], schemes=["content"], mime_types=["text/plain"])
        score = filt.match(Intent("a", data="content://x/1").set_type("text/plain"))
        assert score == IntentFilter.MATCH_CATEGORY_TYPE

    def test_launcher_filter(self):
        filt = launcher_filter()
        intent = Intent("android.intent.action.MAIN").add_category(CATEGORY_LAUNCHER)
        assert filt.matches(intent)
