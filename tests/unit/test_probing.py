"""Unit tests for probe generation, colouring, catch rules, version recycling
and the pending-rule tracker."""

import networkx as nx
import pytest

from repro.core.pending import PendingRuleTracker
from repro.core.versioning import VersionAllocator, VersionSpaceExhausted
from repro.openflow import FlowMod, Match, OutputAction
from repro.openflow.actions import ControllerAction, DropAction, SetFieldAction
from repro.openflow.flowtable import FlowTable
from repro.packet.fields import HeaderField
from repro.probing import (
    ProbeGenerationError,
    RuleView,
    assign_switch_values,
    general_catch_flowmod,
    generate_probe_headers,
    probe_key,
    sequential_catch_flowmod,
    sequential_probe_rule_flowmod,
    welsh_powell_coloring,
)
from nx_graphs import adjacency, validate_coloring


# -- colouring ---------------------------------------------------------------

def test_welsh_powell_triangle_needs_three_colors():
    graph = adjacency(nx.complete_graph(3))
    coloring = welsh_powell_coloring(graph)
    assert validate_coloring(graph, coloring)
    assert len(set(coloring.values())) == 3


def test_welsh_powell_path_needs_two_colors():
    graph = adjacency(nx.path_graph(6))
    coloring = welsh_powell_coloring(graph)
    assert validate_coloring(graph, coloring)
    assert len(set(coloring.values())) == 2


def test_welsh_powell_star_uses_two_colors():
    graph = adjacency(nx.star_graph(8))
    coloring = welsh_powell_coloring(graph)
    assert validate_coloring(graph, coloring)
    assert len(set(coloring.values())) == 2


def test_assign_switch_values_adjacent_differ():
    graph = adjacency(nx.cycle_graph(["A", "B", "C", "D", "E"]))
    values = assign_switch_values(graph, first_value=1, max_value=63)
    for left in graph:
        for right in graph[left]:
            assert values[left] != values[right]
    assert min(values.values()) >= 1


def test_assign_switch_values_respects_field_width():
    # A complete graph needs one colour per switch: 10 values do not fit in 5.
    graph = adjacency(nx.complete_graph(10))
    with pytest.raises(ValueError):
        assign_switch_values(graph, first_value=1, max_value=5)


# -- catch / probe rule builders ------------------------------------------------------

def test_general_catch_rule_matches_only_switch_value():
    flowmod = general_catch_flowmod(HeaderField.IP_TOS, 3)
    assert flowmod.match.value_of(HeaderField.IP_TOS) == 3
    assert isinstance(flowmod.actions[0], ControllerAction)
    assert flowmod.priority > 32768


def test_sequential_probe_rule_rewrites_and_forwards():
    flowmod = sequential_probe_rule_flowmod(
        HeaderField.VLAN_ID, 4000, 4001, HeaderField.IP_TOS, 5, output_port=7
    )
    kinds = [type(action) for action in flowmod.actions]
    assert kinds == [SetFieldAction, SetFieldAction, OutputAction]
    assert flowmod.actions[-1].port == 7
    assert flowmod.match.value_of(HeaderField.VLAN_ID) == 4000


def test_sequential_probe_rule_rejects_equal_pre_post():
    with pytest.raises(ValueError):
        sequential_probe_rule_flowmod(
            HeaderField.VLAN_ID, 4000, 4000, HeaderField.IP_TOS, 5, output_port=7
        )


def test_sequential_probe_rule_rejects_same_fields():
    with pytest.raises(ValueError):
        sequential_probe_rule_flowmod(
            HeaderField.IP_TOS, 1, 2, HeaderField.IP_TOS, 5, output_port=7
        )


def test_sequential_catch_rule():
    flowmod = sequential_catch_flowmod(HeaderField.VLAN_ID, 4001)
    assert flowmod.match.value_of(HeaderField.VLAN_ID) == 4001
    assert isinstance(flowmod.actions[0], ControllerAction)


# -- probe packet generation -------------------------------------------------------------

def _rule(match, priority=100, actions=None):
    return RuleView(match=match, priority=priority,
                    actions=tuple(actions or [OutputAction(1)]))


def _table(*rules):
    """A mirror table holding ``rules``, installed in order."""
    table = FlowTable(name="mirror")
    for rule in rules:
        table.apply_flowmod(FlowMod(rule.match, list(rule.actions), priority=rule.priority))
    return table


def test_probe_for_simple_rule_matches_it_and_carries_catch_value():
    probed = _rule(Match(ip_src="10.0.0.1", ip_dst="10.0.0.2"))
    headers = generate_probe_headers(probed, _table(), {HeaderField.IP_TOS: 7})
    assert headers[HeaderField.IP_TOS] == 7
    assert probed.match.matches_packet(_as_packet(headers))


def _as_packet(headers):
    from repro.packet.packet import Packet

    return Packet(dict(headers))


def test_probe_avoids_overlapping_higher_priority_rule():
    probed = _rule(Match(ip_src="10.0.0.1"), priority=100)
    blocker = _rule(Match(ip_src="10.0.0.1", tp_dst=40001), priority=200,
                    actions=[OutputAction(9)])
    headers = generate_probe_headers(probed, _table(blocker), {HeaderField.IP_TOS: 7})
    packet = _as_packet(headers)
    assert probed.match.matches_packet(packet)
    assert not blocker.match.matches_packet(packet)


def test_probe_impossible_when_fully_covered():
    probed = _rule(Match(ip_src="10.0.0.1"), priority=100)
    cover = _rule(Match(ip_src="10.0.0.1"), priority=200, actions=[OutputAction(9)])
    with pytest.raises(ProbeGenerationError):
        generate_probe_headers(probed, _table(cover), {HeaderField.IP_TOS: 7})


def test_probe_rejected_when_probed_rule_pins_probe_field():
    probed = _rule(Match(ip_src="10.0.0.1", ip_tos=3), priority=100)
    with pytest.raises(ProbeGenerationError):
        generate_probe_headers(probed, _table(), {HeaderField.IP_TOS: 7})


def test_probe_indistinguishable_from_identical_lower_priority_rule():
    probed = _rule(Match(ip_src="10.0.0.1", ip_dst="10.0.0.2"), priority=100,
                   actions=[OutputAction(4)])
    shadow = _rule(Match(ip_src="10.0.0.1"), priority=10, actions=[OutputAction(4)])
    with pytest.raises(ProbeGenerationError):
        generate_probe_headers(probed, _table(shadow), {HeaderField.IP_TOS: 7})


def test_probe_allowed_when_lower_priority_rule_differs():
    probed = _rule(Match(ip_src="10.0.0.1", ip_dst="10.0.0.2"), priority=100,
                   actions=[OutputAction(4)])
    drop_all = _rule(Match(), priority=1, actions=[DropAction()])
    headers = generate_probe_headers(probed, _table(drop_all), {HeaderField.IP_TOS: 7})
    assert probed.match.matches_packet(_as_packet(headers))


def test_probe_key_is_stable_and_header_sensitive():
    probed = _rule(Match(ip_src="10.0.0.1", ip_dst="10.0.0.2"))
    headers = generate_probe_headers(probed, _table(), {HeaderField.IP_TOS: 7})
    assert probe_key(headers) == probe_key(dict(headers))
    changed = dict(headers)
    changed[HeaderField.IP_DST] = 1
    assert probe_key(changed) != probe_key(headers)


# -- version allocator --------------------------------------------------------------------

def test_version_allocator_basic_cycle():
    allocator = VersionAllocator(63)
    batch0, wire0 = allocator.allocate()
    batch1, wire1 = allocator.allocate()
    assert batch0 == 0 and batch1 == 1
    assert wire0 != wire1
    released = allocator.release_through(batch1)
    assert released == [0, 1]
    assert allocator.outstanding() == []


def test_version_allocator_recycles_after_release():
    allocator = VersionAllocator(7, usable_values=[1, 2, 3])
    seen = set()
    for _ in range(9):
        batch, wire = allocator.allocate()
        allocator.mark_observed(wire)
        allocator.release_through(batch)
        seen.add(wire)
    assert seen == {1, 2, 3}


def test_version_allocator_never_reuses_last_observed_value():
    allocator = VersionAllocator(7, usable_values=[1, 2])
    batch0, wire0 = allocator.allocate()
    allocator.mark_observed(wire0)
    allocator.release_through(batch0)
    _batch1, wire1 = allocator.allocate()
    assert wire1 != wire0


def test_version_allocator_exhaustion():
    allocator = VersionAllocator(7, usable_values=[1, 2])
    allocator.allocate()
    allocator.allocate()
    with pytest.raises(VersionSpaceExhausted):
        allocator.allocate()


def test_version_allocator_rejects_tiny_space():
    with pytest.raises(ValueError):
        VersionAllocator(1)


# -- pending rule tracker ----------------------------------------------------------------

def _tracked_flowmods(tracker, count):
    flowmods = [FlowMod(Match(tp_dst=index + 1), [OutputAction(1)]) for index in range(count)]
    return [tracker.add(flowmod, now=float(index)) for index, flowmod in enumerate(flowmods)]


def test_tracker_confirm_single():
    tracker = PendingRuleTracker("S2")
    records = _tracked_flowmods(tracker, 3)
    confirmed = tracker.confirm(records[1].xid, now=10.0, by="probe")
    assert confirmed is records[1]
    assert confirmed.confirmed and confirmed.confirmed_by == "probe"
    assert len(tracker) == 2
    assert tracker.confirm(records[1].xid, now=11.0) is None


def test_tracker_confirm_up_to_sequence_is_cumulative():
    tracker = PendingRuleTracker("S2")
    records = _tracked_flowmods(tracker, 5)
    confirmed = tracker.confirm_up_to_sequence(records[2].sequence, now=9.0, by="barrier")
    assert [record.xid for record in confirmed] == [record.xid for record in records[:3]]
    assert tracker.unconfirmed() == records[3:]


def test_tracker_oldest_returns_in_forwarding_order():
    tracker = PendingRuleTracker("S2")
    records = _tracked_flowmods(tracker, 10)
    oldest = tracker.oldest(4)
    assert [record.xid for record in oldest] == [record.xid for record in records[:4]]
