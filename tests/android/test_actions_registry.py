"""Tests for the platform action/URI registry."""

import hashlib

from hypothesis import given, strategies as st

from repro.android.actions import (
    ALL_ACTIONS,
    KNOWN_ACTIONS,
    NO_DATA,
    URI_SAMPLES,
    URI_TYPES,
    compatible_schemes,
    is_compatible,
    is_known_action,
    is_known_scheme,
    valid_pairs,
)
from repro.android.permissions import PROTECTED_ACTIONS
from repro.android.uri import Uri


class TestRegistryIntegrity:
    def test_action_count_exceeds_paper_floor(self):
        assert len(ALL_ACTIONS) > 100

    def test_no_duplicate_actions(self):
        assert len(set(ALL_ACTIONS)) == len(ALL_ACTIONS)

    def test_twelve_uri_types_with_parseable_samples(self):
        assert len(URI_TYPES) == 12
        for scheme, sample in URI_SAMPLES.items():
            assert Uri.parse(sample).scheme == scheme, sample

    def test_protected_actions_are_in_the_vocabulary(self):
        # QGJ must be able to *generate* protected actions -- that's where
        # the SecurityException dominance comes from.
        overlap = PROTECTED_ACTIONS & KNOWN_ACTIONS
        assert len(overlap) >= 40

    def test_protected_actions_are_the_pinned_45(self):
        # Built from the broadcast tuples; the digest of the sorted members
        # was recorded from the hand-written set it replaced.
        assert len(PROTECTED_ACTIONS) == 45
        members = "\n".join(sorted(PROTECTED_ACTIONS)).encode()
        assert hashlib.sha256(members).hexdigest() == (
            "3f271d8ad8c70ab2a16254116521b31c994456c297a20f78c4e457b65a7157fc"
        )

    def test_protected_share_supports_security_dominance(self):
        share = len(PROTECTED_ACTIONS & KNOWN_ACTIONS) / len(ALL_ACTIONS)
        assert 0.25 <= share <= 0.50

    def test_compatible_schemes_subset_of_registry(self):
        for action in ALL_ACTIONS:
            assert compatible_schemes(action) <= set(URI_TYPES) or compatible_schemes(
                action
            ) == NO_DATA


class TestCompatibility:
    def test_dial_takes_tel_not_https(self):
        assert is_compatible("android.intent.action.DIAL", Uri.parse("tel:123"))
        assert not is_compatible(
            "android.intent.action.DIAL", Uri.parse("https://foo.com/")
        )

    def test_dataless_action_rejects_any_data(self):
        assert not is_compatible(
            "android.intent.action.BATTERY_LOW", Uri.parse("tel:123")
        )

    def test_unknown_action_incompatible_with_everything(self):
        assert not is_compatible("weird.ACTION", Uri.parse("tel:123"))

    def test_none_sides_are_compatible(self):
        assert is_compatible(None, Uri.parse("tel:1"))
        assert is_compatible("android.intent.action.VIEW", None)

    @given(st.sampled_from(ALL_ACTIONS), st.sampled_from(URI_TYPES))
    def test_compatibility_matches_scheme_table(self, action, scheme):
        uri = Uri.parse(URI_SAMPLES[scheme])
        assert is_compatible(action, uri) == (scheme in compatible_schemes(action))


class TestValidPairs:
    def test_deterministic(self):
        assert valid_pairs() == valid_pairs()

    def test_dataless_actions_pair_with_empty_string(self):
        pairs = dict(
            (action, data)
            for action, data in valid_pairs()
            if not compatible_schemes(action)
        )
        assert all(data == "" for data in pairs.values())

    def test_known_predicates(self):
        assert is_known_action("android.intent.action.VIEW")
        assert not is_known_action(None)
        assert not is_known_action("x")
        assert is_known_scheme("tel")
        assert not is_known_scheme(None)
        assert not is_known_scheme("gopher")
