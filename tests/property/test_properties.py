"""Property-based tests (hypothesis) for the core data structures and
invariants: match algebra, flow-table lookup, probe generation, version
recycling, colouring, address codecs and percentiles."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.cdf import fraction_at_least, percentile
from repro.core.versioning import VersionAllocator, VersionSpaceExhausted
from repro.openflow.actions import OutputAction
from repro.openflow.flowtable import FlowTable
from repro.openflow.match import Match
from repro.openflow.messages import FlowMod
from repro.packet.addresses import int_to_ip, ip_to_int, mac_to_int
from repro.packet.fields import HeaderField
from repro.packet.packet import Packet
from repro.probing.coloring import welsh_powell_coloring
from repro.probing.probe_packets import (
    ProbeGenerationError,
    RuleView,
    generate_probe_headers,
)

import networkx as nx
from nx_graphs import adjacency, validate_coloring


# -- strategies -----------------------------------------------------------------

ip_values = st.integers(min_value=0, max_value=0xFFFFFFFF)
small_ip_values = st.integers(min_value=0x0A000000, max_value=0x0A0000FF)
ports = st.integers(min_value=1, max_value=8)
priorities = st.integers(min_value=1, max_value=1000)
tos_values = st.integers(min_value=0, max_value=63)
tp_ports = st.integers(min_value=0, max_value=0xFFFF)


@st.composite
def matches(draw):
    """Random OpenFlow matches over a small address space (so overlaps happen)."""
    kwargs = {}
    if draw(st.booleans()):
        kwargs["ip_src"] = int_to_ip(draw(small_ip_values))
    if draw(st.booleans()):
        kwargs["ip_dst"] = int_to_ip(draw(small_ip_values))
    if draw(st.booleans()):
        kwargs["tp_dst"] = draw(st.integers(min_value=80, max_value=83))
    if draw(st.booleans()):
        kwargs["ip_tos"] = draw(st.integers(min_value=0, max_value=3))
    return Match(**kwargs)


@st.composite
def packets(draw):
    """Random packets in the same small space as the matches above."""
    return Packet({
        HeaderField.IP_SRC: draw(small_ip_values),
        HeaderField.IP_DST: draw(small_ip_values),
        HeaderField.TP_DST: draw(st.integers(min_value=80, max_value=83)),
        HeaderField.IP_TOS: draw(st.integers(min_value=0, max_value=3)),
        HeaderField.TP_SRC: draw(tp_ports),
    })


# -- address codecs --------------------------------------------------------------------

@given(ip_values)
def test_ip_roundtrip_property(value):
    assert ip_to_int(int_to_ip(value)) == value


# -- match algebra ----------------------------------------------------------------------

@given(st.integers(min_value=-(1 << 49), max_value=1 << 49))
def test_mac_integer_is_kept_in_range_and_refused_outside(value):
    if 0 <= value <= 0xFFFFFFFFFFFF:
        assert mac_to_int(value) == value
    else:
        with pytest.raises(ValueError):
            mac_to_int(value)


@given(matches(), packets())
def test_match_all_covers_everything(match, packet):
    assert Match().covers(match)
    assert Match().matches_packet(packet)


@given(matches(), matches(), packets())
def test_intersection_matches_iff_both_match(first, second, packet):
    joint = first.intersection(second)
    both = first.matches_packet(packet) and second.matches_packet(packet)
    if joint is None:
        assert not both
    elif both:
        assert joint.matches_packet(packet)


@given(matches(), matches(), packets())
def test_covers_implies_matching_subset(first, second, packet):
    if first.covers(second) and second.matches_packet(packet):
        assert first.matches_packet(packet)


@given(matches())
def test_match_covers_and_equals_itself(match):
    assert match.covers(match)
    assert match == match
    assert match.overlaps(match) or match.is_match_all


@given(matches(), matches())
def test_overlap_is_symmetric(first, second):
    assert first.overlaps(second) == second.overlaps(first)


# -- flow table ----------------------------------------------------------------------------

@given(st.lists(st.tuples(matches(), priorities, ports), min_size=1, max_size=12), packets())
@settings(max_examples=60)
def test_lookup_returns_highest_priority_matching_entry(rules, packet):
    table = FlowTable()
    for match, priority, port in rules:
        table.apply_flowmod(FlowMod(match, [OutputAction(port)], priority=priority))
    entry = table.lookup(packet)
    matching = [e for e in table.entries if e.match.matches_packet(packet)]
    if not matching:
        assert entry is None
    else:
        assert entry is not None
        assert entry.priority == max(e.priority for e in matching)


@given(st.lists(st.tuples(matches(), priorities), min_size=1, max_size=10))
@settings(max_examples=60)
def test_delete_all_empties_table(rules):
    table = FlowTable()
    for match, priority in rules:
        table.apply_flowmod(FlowMod(match, [OutputAction(1)], priority=priority))
    from repro.openflow.constants import FlowModCommand

    table.apply_flowmod(FlowMod(Match(), [], command=FlowModCommand.DELETE))
    assert len(table) == 0


@given(st.lists(st.tuples(matches(), priorities), min_size=1, max_size=10))
@settings(max_examples=60)
def test_add_is_idempotent_for_identical_rules(rules):
    table = FlowTable()
    for match, priority in rules:
        table.apply_flowmod(FlowMod(match, [OutputAction(1)], priority=priority))
    size_once = len(table)
    for match, priority in rules:
        table.apply_flowmod(FlowMod(match, [OutputAction(1)], priority=priority))
    assert len(table) == size_once


# -- probe generation -------------------------------------------------------------------------

@given(
    st.tuples(small_ip_values, small_ip_values, priorities, ports),
    st.lists(st.tuples(matches(), priorities, ports), max_size=8),
    tos_values.filter(lambda value: value > 0),
)
@settings(max_examples=80)
def test_generated_probe_matches_rule_and_escapes_higher_priority(probed_spec, table_spec, catch_value):
    src, dst, priority, port = probed_spec
    probed = RuleView(
        match=Match(ip_src=int_to_ip(src), ip_dst=int_to_ip(dst)),
        priority=priority,
        actions=(OutputAction(port),),
    )
    table = FlowTable()
    for match, prio, p in table_spec:
        table.apply_flowmod(FlowMod(match, [OutputAction(p)], priority=prio))
    try:
        headers = generate_probe_headers(probed, table, {HeaderField.IP_TOS: catch_value})
    except ProbeGenerationError:
        return  # a refusal is always acceptable; a wrong probe is not
    packet = Packet(dict(headers))
    assert probed.match.matches_packet(packet)
    assert headers[HeaderField.IP_TOS] == catch_value
    for rule in table.entries:
        if rule.priority > probed.priority:
            assert not rule.match.matches_packet(packet)


# -- version allocation --------------------------------------------------------------------------

@given(st.integers(min_value=2, max_value=20), st.integers(min_value=1, max_value=200))
@settings(max_examples=50)
def test_version_allocation_never_duplicates_outstanding_values(space, operations):
    allocator = VersionAllocator(63, usable_values=list(range(1, space + 1)))
    outstanding = {}
    for _step in range(operations):
        try:
            batch, wire = allocator.allocate()
        except VersionSpaceExhausted:
            if outstanding:
                oldest = min(outstanding)
                allocator.mark_observed(outstanding[oldest])
                allocator.release_through(oldest)
                outstanding = {b: w for b, w in outstanding.items() if b > oldest}
            continue
        assert wire not in outstanding.values()
        outstanding[batch] = wire


# -- colouring --------------------------------------------------------------------------------------

@given(st.integers(min_value=1, max_value=12), st.floats(min_value=0.0, max_value=1.0),
       st.randoms())
@settings(max_examples=50)
def test_welsh_powell_always_valid(node_count, density, rng):
    graph = nx.gnp_random_graph(node_count, density, seed=rng.randint(0, 10000))
    coloring = welsh_powell_coloring(adjacency(graph))
    assert validate_coloring(graph, coloring)
    assert set(coloring) == set(graph.nodes)
    if graph.number_of_nodes():
        max_degree = max((degree for _node, degree in graph.degree), default=0)
        assert max(coloring.values()) <= max_degree


# -- percentiles -------------------------------------------------------------------------------------

@given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=200),
       st.floats(min_value=0.0, max_value=1.0))
def test_percentile_bounded_by_min_max(values, fraction):
    result = percentile(values, fraction)
    assert min(values) <= result <= max(values)


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=200))
def test_fraction_at_least_falls_from_one_in_steps_of_the_sample(values):
    ordered = sorted(values)
    fractions = [fraction_at_least(values, threshold) for threshold in ordered]
    assert fractions[0] == 1.0
    assert all(later <= earlier for earlier, later in zip(fractions, fractions[1:]))
    assert all(fraction * len(values) == pytest.approx(round(fraction * len(values)))
               for fraction in fractions)
    assert fraction_at_least(values, ordered[-1] + 1.0) == 0.0
