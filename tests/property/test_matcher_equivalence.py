"""Equivalence of the compiled matcher/flow-table fast paths with the
reference implementations (``tests/oracles/first_match.py``), over randomized
rules and packets."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from first_match import lookup_reference, matches_packet_reference

from repro.openflow.actions import OutputAction
from repro.openflow.flowtable import FlowTable
from repro.openflow.match import Match
from repro.openflow.messages import FlowMod
from repro.packet.fields import FIELD_REGISTRY, HeaderField
from repro.packet.packet import Packet

#: Fields exercised by the random generators (mix of widths and kinds).
_FIELDS = [
    HeaderField.IN_PORT,
    HeaderField.ETH_TYPE,
    HeaderField.VLAN_ID,
    HeaderField.IP_SRC,
    HeaderField.IP_DST,
    HeaderField.IP_PROTO,
    HeaderField.IP_TOS,
    HeaderField.TP_SRC,
    HeaderField.TP_DST,
]


def _random_match(rng: random.Random) -> Match:
    kwargs = {}
    for field in rng.sample(_FIELDS, rng.randint(0, len(_FIELDS))):
        limit = FIELD_REGISTRY[field].max_value
        if field in (HeaderField.IP_SRC, HeaderField.IP_DST) and rng.random() < 0.5:
            address = rng.randint(0, limit)
            prefix = rng.randint(0, 32)
            kwargs[field.value] = (
                f"{address >> 24 & 255}.{address >> 16 & 255}"
                f".{address >> 8 & 255}.{address & 255}",
                prefix,
            )
        else:
            kwargs[field.value] = rng.randint(0, min(limit, (1 << 32) - 1))
    return Match(**kwargs)


def _random_packet(rng: random.Random) -> Packet:
    headers = {}
    for field in rng.sample(_FIELDS, rng.randint(0, len(_FIELDS))):
        limit = FIELD_REGISTRY[field].max_value
        headers[field] = rng.randint(0, min(limit, (1 << 32) - 1))
    return Packet(headers, payload_size=rng.randint(0, 1200))


def test_compiled_matcher_agrees_with_reference_on_thousands_of_pairs():
    rng = random.Random(20140707)
    checked = matched = 0
    for _ in range(3000):
        match = _random_match(rng)
        packet = _random_packet(rng)
        compiled = match.matches_packet(packet)
        reference = matches_packet_reference(match, packet)
        assert compiled == reference, (match, packet.headers)
        checked += 1
        matched += compiled
    assert checked == 3000
    # Sanity: the generator produces both outcomes, not a trivial suite.
    assert 0 < matched < checked


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_compiled_matcher_agrees_with_reference(seed):
    rng = random.Random(seed)
    match = _random_match(rng)
    packet = _random_packet(rng)
    assert match.matches_packet(packet) == matches_packet_reference(match, packet)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    mode=st.sampled_from(["priority", "install_order"]),
    rule_count=st.integers(min_value=0, max_value=24),
)
def test_flowtable_lookup_agrees_with_reference(seed, mode, rule_count):
    rng = random.Random(seed)
    table = FlowTable(mode=mode)
    for index in range(rule_count):
        table.apply_flowmod(
            FlowMod(
                _random_match(rng),
                [OutputAction(rng.randint(1, 8))],
                priority=rng.choice([1, 100, 100, 500, 32768]),
            ),
            now=float(index % 5),  # duplicate install times exercise ties
        )
    for _ in range(20):
        packet = _random_packet(rng)
        fast = table.lookup(packet)
        reference = lookup_reference(table, packet)
        assert fast is reference, (
            mode,
            getattr(fast, "entry_id", None),
            getattr(reference, "entry_id", None),
            table.dump(),
            packet.headers,
        )


def test_exact_match_fast_path_hits_and_misses():
    table = FlowTable(mode="priority")
    table.apply_flowmod(
        FlowMod(Match(ip_src="10.0.0.1", ip_dst="10.0.0.2"),
                [OutputAction(1)], priority=100))
    table.apply_flowmod(
        FlowMod(Match(ip_src=("10.0.0.0", 24)), [OutputAction(2)], priority=50))
    hit = Packet({HeaderField.IP_SRC: (10 << 24) + 1,
                  HeaderField.IP_DST: (10 << 24) + 2})
    near_miss = Packet({HeaderField.IP_SRC: (10 << 24) + 1,
                        HeaderField.IP_DST: (10 << 24) + 3})
    outside = Packet({HeaderField.IP_SRC: (11 << 24) + 1})
    assert table.lookup(hit).actions[0].port == 1
    assert table.lookup(near_miss).actions[0].port == 2  # prefix fallback
    assert table.lookup(outside) is None
    for packet in (hit, near_miss, outside):
        assert table.lookup(packet) is lookup_reference(table, packet)
