"""Tests for the QGJ master protocol's wire format details."""

import json

import pytest

from repro.apps.catalog import build_wear_corpus
from repro.qgj.campaigns import Campaign
from repro.qgj.fuzzer import FuzzConfig
from repro.qgj.master import (
    PATH_START_FUZZ,
    PATH_SUMMARY,
    QGJMobile,
    deploy,
)
from repro.wear.device import PhoneDevice, WearDevice, pair
from repro.wear.node import MessageClient


@pytest.fixture()
def rig():
    corpus = build_wear_corpus(seed=2018)
    watch = WearDevice("watch")
    phone = PhoneDevice("phone")
    pair(phone, watch)
    corpus.install(watch)
    mobile, wear = deploy(phone, watch)
    return phone, watch, mobile, wear


class TestStartFuzzWire:
    def test_strides_survive_the_wire(self, rig):
        phone, watch, mobile, wear = rig
        config = FuzzConfig(strides={Campaign.A: 50, Campaign.B: 7})
        mobile.start_fuzz(["com.runmate.wear"], campaigns="AB", config=config)
        summary = wear.last_summary
        # Campaign A at stride 50 → ceil(1548/50)=31 per component;
        # campaign B at stride 7 → ceil(141/7)=21 per component.
        per_campaign = {}
        for app in summary.apps:
            for comp in app.components:
                per_campaign.setdefault(comp.campaign, set()).add(comp.sent)
        assert per_campaign[Campaign.A] == {31}
        assert per_campaign[Campaign.B] == {21}

    def test_max_intents_survives_the_wire(self, rig):
        _, _, mobile, wear = rig
        mobile.start_fuzz(
            ["com.runmate.wear"],
            campaigns="A",
            config=FuzzConfig(max_intents_per_component=5),
        )
        for app in wear.last_summary.apps:
            for comp in app.components:
                assert comp.sent <= 5

    def test_raw_protocol_message(self, rig):
        """A hand-built JSON request drives the wear app directly."""
        phone, watch, _, wear = rig
        request = {
            "packages": ["com.runmate.wear"],
            "campaigns": "B",
            "strides": {"B": 20},
            "seed": 3,
        }
        MessageClient(phone.node).send_message(
            watch.node.node_id, PATH_START_FUZZ, json.dumps(request).encode()
        )
        assert wear.last_summary is not None
        assert wear.last_summary.total_sent > 0
        # The summary came back over the DataAPI.
        item = phone.node.get_data_item(PATH_SUMMARY)
        assert item is not None
        assert item.data["total_sent"] == wear.last_summary.total_sent

    def test_summary_arrives_on_phone_data_layer(self, rig):
        phone, _, mobile, _ = rig
        mobile.start_fuzz(
            ["com.runmate.wear"],
            campaigns="B",
            config=FuzzConfig(max_intents_per_component=2),
        )
        assert mobile.last_summary["device"] == "watch"

    def test_render_summary_before_any_run(self, rig):
        phone, watch, _, _ = rig
        fresh_mobile = QGJMobile(phone, watch.node.node_id)
        assert fresh_mobile.render_summary() == "no fuzz run yet"
