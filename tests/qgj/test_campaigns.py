"""Tests for the Fuzz Intent Campaign generators (Table I)."""

import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.android.actions import (
    ALL_ACTIONS,
    URI_TYPES,
    is_compatible,
    is_known_action,
    is_known_scheme,
    valid_pairs,
)
from repro.android.intent import ComponentName
from repro.android.uri import Uri
from repro.qgj.campaigns import (
    CAMPAIGN_C_ROUNDS,
    Campaign,
    campaign_size,
    generate,
    table1_rows,
)

CMP = ComponentName("com.a", "com.a.Main")

#: Two components: campaigns C and D key their RNG on the component.
DIGEST_COMPONENTS = (
    CMP,
    ComponentName("com.pulsetrack.wear", "com.pulsetrack.wear.SyncService"),
)

#: sha256 of ``generate(campaign, 0, component, stride)`` as canonical JSON,
#: keyed "campaign/stride/component index", recorded before campaigns A and
#: B became constant tables and before random_ascii inlined its draws.
GENERATED_DIGESTS = {
    "A/1/0": "c5a78764b41df69ef8b6149b8b34cb94406e93e720bef5566781cf0991916cb8",
    "A/1/1": "c5a78764b41df69ef8b6149b8b34cb94406e93e720bef5566781cf0991916cb8",
    "A/2/0": "861cf9c4ff27edd36e762481c169c3458ca8bd21fd821a830cc6cbb2d799b18f",
    "A/2/1": "861cf9c4ff27edd36e762481c169c3458ca8bd21fd821a830cc6cbb2d799b18f",
    "A/8/0": "903eefc613c0fc7c52d5e74e3ff3a9d8729cbbed2ef893505ff6c4d288e29ce2",
    "A/8/1": "903eefc613c0fc7c52d5e74e3ff3a9d8729cbbed2ef893505ff6c4d288e29ce2",
    "A/12/0": "a89f940d509d2e1b07667ccc065cd0c72736db0e8d0f1373b40677e91fe83bc9",
    "A/12/1": "a89f940d509d2e1b07667ccc065cd0c72736db0e8d0f1373b40677e91fe83bc9",
    "B/1/0": "e0f260f30d3732080e13fe616eddc9ce973b27d22b52b20c22aeddc95635de44",
    "B/1/1": "e0f260f30d3732080e13fe616eddc9ce973b27d22b52b20c22aeddc95635de44",
    "B/2/0": "41694b9e27c30855c4f039a0c7e3201284c268c83063b7344815a6a37e676b45",
    "B/2/1": "41694b9e27c30855c4f039a0c7e3201284c268c83063b7344815a6a37e676b45",
    "B/8/0": "a6e91e52889085df82f85d3076df59fd6a0bf925abc4e2a2472dfafbd2d07d6d",
    "B/8/1": "a6e91e52889085df82f85d3076df59fd6a0bf925abc4e2a2472dfafbd2d07d6d",
    "B/12/0": "e4a04300e175b4d2f0891c4f0d427ccd2f485657f4a026377603cbf67e8d7aea",
    "B/12/1": "e4a04300e175b4d2f0891c4f0d427ccd2f485657f4a026377603cbf67e8d7aea",
    "C/1/0": "4b8191ae8223803479b083ea71975ed845dbb0fb989c16c7182efd6c878e3415",
    "C/1/1": "ee2bc5016a841edc8b2405d1c5c667c7bf8c5bc906d82e25d9c971caca58cb62",
    "C/2/0": "1c67d67ff8033a5bc2f9247dd98a866e56f9e80291170221a43c5fc2856db607",
    "C/2/1": "b1e679a217ca3f42235fd1f7641fe48c4c62491800f6a96f4c81be56369d6efd",
    "C/8/0": "164e68ed6ffcd498210b0bcef5cd681d710c819757a2e309c235e96ee78e2af1",
    "C/8/1": "3729b4a3f00d3c7009dc8509d3e5236362e18df69b5008ada9090ad56457f229",
    "C/12/0": "1f83942f582fc60e3c3adf72b920d4eda08a456d5dd659f7f86562beb3a91935",
    "C/12/1": "94bc7aaefd2e869c183ad513824e4e7103a342eda6ff4be00db889581958a126",
    "D/1/0": "c92fc1e2b75eeea16b3d7c45c8aa4b2bf3c4bac362f18ee04cd07dd1201b86d8",
    "D/1/1": "2beae3c570e403d226d459e40e44612a3f1636d61bc7e288554d06021449e01a",
    "D/2/0": "1d2bae4e88d36aaf0c29f2b8cb713a7a42619f10ecc7e9e822d093c1df1de15a",
    "D/2/1": "b8be8000cb7d08556a757bd9c01139b2afdc13d828b509923247fc81d968b021",
    "D/8/0": "732f122677cadd1c6d69c7f34330490b3f0dd1651a73d849fd4186519cea62eb",
    "D/8/1": "f0f4944e9bead57044ef4edc041e28ca76e2f723c80de1fcb838a3f429574186",
    "D/12/0": "2e118052edd94b7352dc997c4d647b371934046e8542b225774c7335435ff945",
    "D/12/1": "b76cc00f6d1abf08a5effe42cdc0e31babbff103802a77c35c80f5a15eca52fc",
}


def _digest(campaign, seed, component, stride):
    payload = json.dumps(
        [
            [fi.action, fi.data, [[key, value] for key, value in fi.extras]]
            for fi in generate(campaign, seed, component, stride)
        ]
    )
    return hashlib.sha256(payload.encode()).hexdigest()


class TestActionRegistry:
    def test_over_100_actions(self):
        # "The fuzzer has over 100 different Actions ... configured."
        assert len(ALL_ACTIONS) > 100
        assert len(set(ALL_ACTIONS)) == len(ALL_ACTIONS)

    def test_exactly_12_uri_types(self):
        assert len(URI_TYPES) == 12

    def test_compatibility_is_consistent(self):
        from repro.android.actions import URI_SAMPLES, compatible_schemes

        for action in ALL_ACTIONS:
            for scheme in compatible_schemes(action):
                uri = Uri.parse(URI_SAMPLES[scheme])
                assert is_compatible(action, uri)

    def test_none_data_compatible_with_everything(self):
        assert is_compatible("android.intent.action.VIEW", None)
        assert is_compatible(None, None)

    def test_valid_pairs_cover_every_action(self):
        actions = {action for action, _ in valid_pairs()}
        assert actions == set(ALL_ACTIONS)

    def test_valid_pairs_really_are_valid(self):
        for action, data in valid_pairs():
            if data:
                assert is_compatible(action, Uri.parse(data)), (action, data)


class TestGenerators:
    def test_campaign_a_structure(self):
        intents = list(generate(Campaign.A, component=CMP))
        assert len(intents) == len(ALL_ACTIONS) * len(URI_TYPES)
        for fi in intents:
            assert is_known_action(fi.action)
            assert is_known_scheme(Uri.parse(fi.data).scheme)
            assert not fi.extras

    def test_campaign_a_contains_invalid_combinations(self):
        intents = list(generate(Campaign.A, component=CMP))
        invalid = [
            fi for fi in intents if not is_compatible(fi.action, Uri.parse(fi.data))
        ]
        assert invalid, "semi-valid campaign must contain invalid pairs"

    def test_campaign_b_one_field_only(self):
        intents = list(generate(Campaign.B, component=CMP))
        assert len(intents) == len(ALL_ACTIONS) + len(URI_TYPES)
        for fi in intents:
            assert (fi.action is None) != (fi.data is None)
            assert not fi.extras

    def test_campaign_c_one_side_garbage(self):
        intents = list(generate(Campaign.C, component=CMP))
        assert len(intents) == CAMPAIGN_C_ROUNDS * (len(ALL_ACTIONS) + len(URI_TYPES))
        for fi in intents:
            action_known = is_known_action(fi.action)
            data_known = is_known_scheme(Uri.parse(fi.data).scheme) if fi.data else False
            assert action_known or data_known
            assert fi.action is not None and fi.data is not None

    def test_campaign_d_valid_pairs_with_extras(self):
        intents = list(generate(Campaign.D, component=CMP))
        for fi in intents:
            assert is_known_action(fi.action)
            if fi.data:
                assert is_compatible(fi.action, Uri.parse(fi.data))
            assert 1 <= len(fi.extras) <= 5

    def test_deterministic_per_component_and_seed(self):
        a = [fi for fi in generate(Campaign.D, seed=1, component=CMP)]
        b = [fi for fi in generate(Campaign.D, seed=1, component=CMP)]
        assert a == b

    def test_different_components_get_different_randoms(self):
        other = ComponentName("com.b", "com.b.Main")
        a = list(generate(Campaign.C, seed=1, component=CMP))
        b = list(generate(Campaign.C, seed=1, component=other))
        assert a != b

    def test_stride_subsamples(self):
        full = list(generate(Campaign.B, component=CMP))
        half = list(generate(Campaign.B, component=CMP, stride=2))
        assert len(half) == (len(full) + 1) // 2
        assert half == full[::2]

    def test_stride_validation(self):
        with pytest.raises(ValueError):
            list(generate(Campaign.B, component=CMP, stride=0))

    def test_campaign_a_stride_12_keeps_every_action(self):
        # The quick config's structural guarantee.
        intents = list(generate(Campaign.A, component=CMP, stride=12))
        assert {fi.action for fi in intents} == set(ALL_ACTIONS)

    def test_campaign_c_stride_2_keeps_every_valid_action(self):
        intents = list(generate(Campaign.C, component=CMP, stride=2))
        valid_actions = {fi.action for fi in intents if is_known_action(fi.action)}
        assert valid_actions == set(ALL_ACTIONS)

    @given(st.sampled_from(list(Campaign)), st.integers(min_value=1, max_value=40))
    @settings(max_examples=20, deadline=None)
    def test_campaign_size_matches_generator(self, campaign, stride):
        generated = sum(1 for _ in generate(campaign, component=CMP, stride=stride))
        assert generated == campaign_size(campaign, stride)

    @pytest.mark.parametrize("campaign", list(Campaign), ids=str)
    def test_generated_intents_are_pinned(self, campaign):
        for stride in (1, 2, 8, 12):
            for index, component in enumerate(DIGEST_COMPONENTS):
                key = f"{campaign.value}/{stride}/{index}"
                assert _digest(campaign, 0, component, stride) == GENERATED_DIGESTS[key], key

    def test_build_sets_component(self):
        fi = next(iter(generate(Campaign.A, component=CMP)))
        intent = fi.build(CMP)
        assert intent.component == CMP
        assert intent.is_explicit()

    def test_extras_reach_the_intent(self):
        for fi in generate(Campaign.D, component=CMP):
            intent = fi.build(CMP)
            assert len(intent.extras) == len(fi.extras)
            break


class TestTable1:
    def test_rows_cover_all_campaigns(self):
        rows = table1_rows()
        assert [row["campaign"] for row in rows] == list(Campaign)
        for row in rows:
            assert row["intents_per_component"] > 0
            assert "cmp=some.component.name" in row["example"]

    def test_volume_ordering_matches_paper(self):
        # Paper: A (~1M) >> C (~300K) > D (~250K) > B (~100K).
        sizes = {row["campaign"]: row["intents_per_component"] for row in table1_rows()}
        assert sizes[Campaign.A] > sizes[Campaign.C] > sizes[Campaign.D] > sizes[Campaign.B]

    def test_paper_scale_total_volume(self):
        # ~2261 intents x 912 components ~ 2M, the paper's "over a million
        # and half intents ... to over 900 components".
        per_component = sum(campaign_size(c) for c in Campaign)
        assert 1_500_000 < per_component * 912 < 2_500_000
