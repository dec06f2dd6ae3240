"""Tests for the pool mutators."""

import random

from repro.android.actions import ALL_ACTIONS, URI_SAMPLES
from repro.guided.mutators import MUTATION_OPS, mutate_intent
from repro.qgj.campaigns import FuzzIntent

RICH = FuzzIntent(
    action="android.intent.action.VIEW",
    data="content://contacts/people/1",
    extras=(("extra_0", 1), ("extra_1", "x")),
)
BARE = FuzzIntent(action=None, data=None)
POOL = (
    FuzzIntent(action="android.intent.action.DIAL", data="tel:123"),
    FuzzIntent(action="android.intent.action.SEND", data=None, extras=(("e", 2),)),
)


class TestOperatorTable:
    def test_names_are_pinned(self):
        # The table is part of the observable mutation stream: appending is
        # fine, renaming or reordering replays differently.
        assert list(MUTATION_OPS) == [
            "swap_action",
            "garble_action",
            "drop_action",
            "swap_data",
            "garble_data",
            "scheme_slam",
            "drop_data",
            "add_extra",
            "drop_extra",
            "mutate_extra",
            "splice",
        ]

    def test_every_operator_yields_fuzz_intent_or_none(self):
        rng = random.Random(1)
        for name, op in MUTATION_OPS.items():
            for base in (RICH, BARE):
                mutated = op(base, rng, POOL)
                assert mutated is None or isinstance(mutated, FuzzIntent), name

    def test_swap_action_stays_in_valid_actions(self):
        rng = random.Random(2)
        mutated = MUTATION_OPS["swap_action"](RICH, rng, ())
        assert mutated.action in ALL_ACTIONS
        assert mutated.data == RICH.data

    def test_swap_data_uses_valid_samples(self):
        rng = random.Random(3)
        mutated = MUTATION_OPS["swap_data"](RICH, rng, ())
        assert mutated.data in set(URI_SAMPLES.values())

    def test_scheme_slam_keeps_scheme(self):
        rng = random.Random(4)
        mutated = MUTATION_OPS["scheme_slam"](RICH, rng, ())
        assert mutated.data.startswith("content:")
        assert mutated.data != RICH.data

    def test_inapplicable_operators_return_none(self):
        rng = random.Random(5)
        assert MUTATION_OPS["drop_action"](BARE, rng, ()) is None
        assert MUTATION_OPS["drop_data"](BARE, rng, ()) is None
        assert MUTATION_OPS["drop_extra"](BARE, rng, ()) is None
        assert MUTATION_OPS["mutate_extra"](BARE, rng, ()) is None
        assert MUTATION_OPS["scheme_slam"](BARE, rng, ()) is None
        assert MUTATION_OPS["splice"](RICH, rng, POOL[:1]) is None

    def test_splice_caps_extras(self):
        fat = FuzzIntent(
            action="a", data=None, extras=tuple((f"k{i}", i) for i in range(5))
        )
        pool = (fat, FuzzIntent(action="b", data=None, extras=(("x", 1), ("y", 2))))
        rng = random.Random(6)
        for _ in range(20):
            mutated = MUTATION_OPS["splice"](fat, rng, pool)
            assert len(mutated.extras) <= 5


class TestMutateIntent:
    def test_always_yields_an_intent(self):
        rng = random.Random(7)
        for _ in range(200):
            assert isinstance(mutate_intent(BARE, rng, ()), FuzzIntent)

    def test_deterministic_given_seed(self):
        stream_a = [mutate_intent(RICH, random.Random(42), POOL) for _ in range(1)]
        stream_b = [mutate_intent(RICH, random.Random(42), POOL) for _ in range(1)]
        assert stream_a == stream_b
        runs = [
            [mutate_intent(RICH, rng, POOL) for _ in range(50)]
            for rng in (random.Random(42), random.Random(42))
        ]
        assert runs[0] == runs[1]

    def test_different_seeds_diverge(self):
        a = [mutate_intent(RICH, random.Random(1), POOL) for _ in range(20)]
        b = [mutate_intent(RICH, random.Random(2), POOL) for _ in range(20)]
        assert a != b

    def test_mutation_changes_something_usually(self):
        rng = random.Random(8)
        changed = sum(mutate_intent(RICH, rng, POOL) != RICH for _ in range(100))
        assert changed > 80  # drop/garble/swap nearly always move a field

    def test_mutants_are_wire_safe(self):
        from repro.guided.corpus import intent_from_wire, intent_to_wire

        rng = random.Random(9)
        for _ in range(100):
            mutated = mutate_intent(RICH, rng, POOL)
            assert intent_from_wire(intent_to_wire(mutated)) == mutated
