"""The four Fuzz Intent Campaigns (Table I).

QGJ-Master is a *generational* fuzzer: each campaign generates intents with
a characteristic corruption, from the subtle to the egregious:

=========  =================================================================
Campaign   Characteristics of the intents generated
=========  =================================================================
A          **Semi-valid Action and Data**: a valid action and a valid data
           URI are generated separately, but the combination of them may be
           invalid.  |Action| × |TypeOf(Data)| intents per component.
B          **Blank Action or Data**: either the action OR the data URI is
           specified, but not both; all other fields are left blank.
           |Action| + |TypeOf(Data)| intents per component.
C          **Random Action or Data**: one of action/data is valid and the
           other is set randomly.  Three rounds of |Action| + |TypeOf(Data)|
           per component (the paper generated ~3x campaign B's volume).
D          **Random Extras**: for each action, a valid {Action, Data} pair
           with 1-5 Extra fields carrying random values.
=========  =================================================================

Generators are pure and deterministic given (campaign, component, seed), so
a run can be replayed injection-for-injection.  ``stride`` subsamples a
campaign for quick-scale runs while preserving its corruption profile.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import random
import string
from typing import Dict, Iterator, List, Optional, Tuple

from repro.android.actions import (
    ALL_ACTIONS,
    URI_SAMPLES,
    URI_TYPES,
    valid_pairs,
)
from repro.android.intent import ComponentName, Intent


class Campaign(enum.Enum):
    """Fuzz Intent Campaign identifiers, as in Table I."""

    A = "A"
    B = "B"
    C = "C"
    D = "D"

    @property
    def title(self) -> str:
        return _TITLES[self]

    def __str__(self) -> str:
        return self.value


_TITLES: Dict[Campaign, str] = {
    Campaign.A: "Semi-valid Action and Data",
    Campaign.B: "Blank Action or Data",
    Campaign.C: "Random Action or Data",
    Campaign.D: "Random Extras",
}

#: Rounds of the C generator (the paper's campaign C volume is ~3x B's).
CAMPAIGN_C_ROUNDS = 3

_RANDOM_CHARS = string.ascii_letters + string.digits + "$@!%.:/#?&=_- "
#: ``rng.choice(_RANDOM_CHARS)`` draws ``getrandbits`` of this width until
#: the value indexes the alphabet.
_RANDOM_CHAR_BITS = len(_RANDOM_CHARS).bit_length()


@dataclasses.dataclass(frozen=True)
class FuzzIntent:
    """One generated injection payload (component set at send time)."""

    action: Optional[str]
    data: Optional[str]
    extras: Tuple[Tuple[str, object], ...] = ()

    def build(self, component: ComponentName) -> Intent:
        intent = Intent(self.action)
        if self.data is not None and self.data != "":
            intent.set_data_string(self.data)
        intent.set_component(component)
        for key, value in self.extras:
            intent.put_extra(key, value)
        return intent


def random_ascii(rng: random.Random, min_len: int = 3, max_len: int = 24) -> str:
    """A random string, character for character what ``rng.choice`` draws.

    Each character runs, inline, the ``getrandbits`` rejection loop that
    ``choice`` runs for the 76-character alphabet: the same strings and the
    same RNG state afterwards, without ``choice``'s per-call overhead.
    """
    length = rng.randint(min_len, max_len)
    getrandbits = rng.getrandbits
    size = len(_RANDOM_CHARS)
    chars = []
    for _ in range(length):
        index = getrandbits(_RANDOM_CHAR_BITS)
        while index >= size:
            index = getrandbits(_RANDOM_CHAR_BITS)
        chars.append(_RANDOM_CHARS[index])
    return "".join(chars)


def _random_extra_value(rng: random.Random) -> object:
    kind = rng.randrange(5)
    if kind == 0:
        return random_ascii(rng)
    if kind == 1:
        return rng.randint(-(2**31), 2**31 - 1)
    if kind == 2:
        return rng.uniform(-1e6, 1e6)
    if kind == 3:
        return rng.random() < 0.5
    return None  # a null extra -- a classic NPE seed


def generate_campaign_a() -> Iterator[FuzzIntent]:
    """Valid action x valid data URI; the cross product includes invalid pairs."""
    for action in ALL_ACTIONS:
        for scheme in URI_TYPES:
            yield FuzzIntent(action=action, data=URI_SAMPLES[scheme])


def generate_campaign_b() -> Iterator[FuzzIntent]:
    """Either action or data, never both; everything else blank."""
    for action in ALL_ACTIONS:
        yield FuzzIntent(action=action, data=None)
    for scheme in URI_TYPES:
        yield FuzzIntent(action=None, data=URI_SAMPLES[scheme])


def generate_campaign_c(rng: random.Random, rounds: int = CAMPAIGN_C_ROUNDS) -> Iterator[FuzzIntent]:
    """One side valid, the other random garbage."""
    for _ in range(rounds):
        for action in ALL_ACTIONS:
            yield FuzzIntent(action=action, data=random_ascii(rng))
        for scheme in URI_TYPES:
            yield FuzzIntent(action=random_ascii(rng), data=URI_SAMPLES[scheme])


def generate_campaign_d(rng: random.Random) -> Iterator[FuzzIntent]:
    """Valid {Action, Data} pairs decorated with 1-5 random extras."""
    for action, data in valid_pairs():
        extras = tuple(
            (f"extra_{i}", _random_extra_value(rng))
            for i in range(rng.randint(1, 5))
        )
        yield FuzzIntent(action=action, data=data or None, extras=extras)


@functools.lru_cache(maxsize=None)
def _constant_table(campaign: Campaign) -> Tuple[FuzzIntent, ...]:
    """Campaign A's or B's intents, built once per process.

    Neither draws randomness or reads the component, so every component
    and seed gets the same table.
    """
    if campaign == Campaign.A:
        return tuple(generate_campaign_a())
    return tuple(generate_campaign_b())


def generate(
    campaign: Campaign,
    seed: int = 0,
    component: Optional[ComponentName] = None,
    stride: int = 1,
) -> Iterator[FuzzIntent]:
    """Generate *campaign*'s intents for one component.

    ``stride`` keeps every ``stride``-th intent (quick-scale subsampling).
    Campaigns A and B are constant tables; C and D key their RNG on
    (campaign, component, seed) so different components receive different
    random payloads, reproducibly.
    """
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if campaign in (Campaign.A, Campaign.B):
        yield from _constant_table(campaign)[::stride]
        return
    key = f"{campaign.value}|{component.flatten_to_string() if component else ''}|{seed}"
    rng = random.Random(key)
    if campaign == Campaign.C:
        source = generate_campaign_c(rng)
    elif campaign == Campaign.D:
        source = generate_campaign_d(rng)
    else:  # pragma: no cover - exhaustive enum
        raise ValueError(f"unknown campaign: {campaign}")
    for index, fuzz_intent in enumerate(source):
        if index % stride == 0:
            yield fuzz_intent


def campaign_size(campaign: Campaign, stride: int = 1) -> int:
    """Exact per-component intent count for *campaign* at *stride*."""
    if campaign == Campaign.A:
        full = len(ALL_ACTIONS) * len(URI_TYPES)
    elif campaign == Campaign.B:
        full = len(ALL_ACTIONS) + len(URI_TYPES)
    elif campaign == Campaign.C:
        full = CAMPAIGN_C_ROUNDS * (len(ALL_ACTIONS) + len(URI_TYPES))
    elif campaign == Campaign.D:
        full = len(valid_pairs())
    else:  # pragma: no cover - exhaustive enum
        raise ValueError(f"unknown campaign: {campaign}")
    return (full + stride - 1) // stride


def table1_rows(stride: int = 1) -> List[Dict[str, object]]:
    """The Table I summary: strategy, formula, and per-component volume."""
    formulas = {
        Campaign.A: "|Action| x |TypeOf(Data)|",
        Campaign.B: "|Action| + |TypeOf(Data)|",
        Campaign.C: f"{CAMPAIGN_C_ROUNDS} x (|Action| + |TypeOf(Data)|)",
        Campaign.D: "one valid pair per {Action, Data}",
    }
    examples = {
        Campaign.A: "{act=ACTION_DIAL, data=http://foo.com/, cmp=some.component.name}",
        Campaign.B: "{data=tel:123, cmp=some.component.name}",
        Campaign.C: "{act=ACTION_DIAL, cmp=some.component.name}",
        Campaign.D: "{act=ACTION_DIAL, data=tel:123, cmp=some.component.name (has extras)}",
    }
    return [
        {
            "campaign": campaign,
            "title": campaign.title,
            "formula": formulas[campaign],
            "intents_per_component": campaign_size(campaign, stride),
            "example": examples[campaign],
        }
        for campaign in Campaign
    ]
