"""Unit tests for the packet model, addresses, matches and actions."""

import pytest

from repro.openflow.actions import (
    ControllerAction,
    DropAction,
    OutputAction,
    SetFieldAction,
    actions_signature,
    apply_actions,
)
from repro.openflow.constants import CONTROLLER_PORT
from repro.openflow.match import Match
from repro.packet import (
    Packet,
    int_to_ip,
    int_to_mac,
    ip_to_int,
    mac_to_int,
    make_ip_packet,
    make_probe_packet,
    prefix_mask,
)
from repro.packet.fields import HeaderField, probe_candidate_fields


# -- addresses ---------------------------------------------------------------

def test_ip_roundtrip():
    assert int_to_ip(ip_to_int("10.0.0.1")) == "10.0.0.1"
    assert ip_to_int("0.0.0.0") == 0
    assert ip_to_int("255.255.255.255") == 0xFFFFFFFF


def test_ip_malformed_rejected():
    with pytest.raises(ValueError):
        ip_to_int("10.0.0")
    with pytest.raises(ValueError):
        ip_to_int("10.0.0.300")
    with pytest.raises(ValueError):
        int_to_ip(-1)


def test_mac_roundtrip():
    assert int_to_mac(mac_to_int("00:11:22:aa:bb:cc")) == "00:11:22:aa:bb:cc"


def test_prefix_mask_values():
    assert prefix_mask(0) == 0
    assert prefix_mask(24) == 0xFFFFFF00
    assert prefix_mask(32) == 0xFFFFFFFF
    with pytest.raises(ValueError):
        prefix_mask(33)


# -- packets ------------------------------------------------------------------

def test_make_ip_packet_sets_expected_headers():
    packet = make_ip_packet("10.0.0.1", "10.0.0.2", tp_dst=80, ip_tos=4)
    assert packet.get(HeaderField.IP_SRC) == ip_to_int("10.0.0.1")
    assert packet.get(HeaderField.IP_DST) == ip_to_int("10.0.0.2")
    assert packet.get(HeaderField.TP_DST) == 80
    assert packet.get(HeaderField.IP_TOS) == 4
    assert not packet.is_probe


def test_packet_field_validation():
    with pytest.raises(ValueError):
        Packet({HeaderField.IP_TOS: 64})  # ToS only has 6 bits
    with pytest.raises(ValueError):
        Packet({HeaderField.VLAN_ID: 5000})


def test_packet_copy_preserves_headers_and_trace_but_new_identity():
    packet = make_ip_packet("10.0.0.1", "10.0.0.2", flow_id="f1")
    packet.trace.append("H1")
    clone = packet.copy()
    assert clone.packet_id != packet.packet_id
    assert clone.headers == packet.headers
    assert clone.trace == packet.trace == ["H1"] and clone.trace is not packet.trace
    assert clone.total_size == packet.total_size == 42 + packet.payload_size
    clone.set(HeaderField.IP_TOS, 7)
    assert packet.get(HeaderField.IP_TOS) == 0


def test_probe_packet_flagged_and_payloadless():
    probe = make_probe_packet({HeaderField.IP_TOS: 3})
    assert probe.is_probe
    assert probe.payload_size == 0


def test_probe_candidate_fields_are_rewritable():
    for spec in probe_candidate_fields():
        assert spec.rewritable


# -- matches ---------------------------------------------------------------------

def test_match_all_matches_everything():
    match = Match()
    assert match.is_match_all
    assert match.matches_packet(make_ip_packet("1.2.3.4", "5.6.7.8"))


def test_exact_match_on_addresses():
    match = Match(ip_src="10.0.0.1", ip_dst="10.0.0.2")
    assert match.matches_packet(make_ip_packet("10.0.0.1", "10.0.0.2"))
    assert not match.matches_packet(make_ip_packet("10.0.0.1", "10.0.0.3"))


def test_prefix_match():
    match = Match(ip_dst=("10.1.0.0", 16))
    assert match.matches_packet(make_ip_packet("1.1.1.1", "10.1.200.5"))
    assert not match.matches_packet(make_ip_packet("1.1.1.1", "10.2.0.5"))


def test_prefix_match_string_notation():
    match = Match(ip_dst="10.1.0.0/16")
    assert match.matches_packet(make_ip_packet("1.1.1.1", "10.1.0.9"))


def test_match_covers_more_specific():
    broad = Match(ip_dst=("10.0.0.0", 8))
    narrow = Match(ip_dst="10.1.2.3", tp_dst=80)
    assert broad.covers(narrow)
    assert not narrow.covers(broad)


def test_match_overlap_and_intersection():
    by_src = Match(ip_src="10.0.0.1")
    by_dst = Match(ip_dst="10.0.0.2")
    assert by_src.overlaps(by_dst)
    joint = by_src.intersection(by_dst)
    assert joint.value_of(HeaderField.IP_SRC) == ip_to_int("10.0.0.1")
    assert joint.value_of(HeaderField.IP_DST) == ip_to_int("10.0.0.2")


def test_disjoint_matches_do_not_overlap():
    first = Match(ip_src="10.0.0.1")
    second = Match(ip_src="10.0.0.2")
    assert not first.overlaps(second)
    assert first.intersection(second) is None


def test_match_exact_same_and_hash():
    first = Match(ip_src="10.0.0.1", tp_dst=80)
    second = Match(tp_dst=80, ip_src="10.0.0.1")
    assert first.exact_same(second)
    assert first == second
    assert hash(first) == hash(second)


def test_match_extended_adds_constraint():
    base = Match(ip_src="10.0.0.1")
    extended = base.extended(vlan_id=2)
    assert extended.value_of(HeaderField.VLAN_ID) == 2
    assert extended.value_of(HeaderField.IP_SRC) == ip_to_int("10.0.0.1")
    assert base.is_wildcard(HeaderField.VLAN_ID)


def test_match_specificity_counts_bits():
    assert Match().specificity() == 0
    assert Match(ip_src="10.0.0.1").specificity() == 32
    assert Match(ip_src=("10.0.0.0", 8)).specificity() == 8


# -- actions ------------------------------------------------------------------------

def test_apply_actions_output_ports_and_rewrite():
    packet = make_ip_packet("10.0.0.1", "10.0.0.2")
    actions = [SetFieldAction(HeaderField.IP_TOS, 5), OutputAction(3)]
    ports = apply_actions(packet, actions)
    assert ports == [3]
    assert packet.get(HeaderField.IP_TOS) == 5


def test_apply_actions_controller_and_drop():
    packet = make_ip_packet("10.0.0.1", "10.0.0.2")
    assert apply_actions(packet, [ControllerAction()]) == [CONTROLLER_PORT]
    assert apply_actions(packet, [DropAction(), OutputAction(1)]) == []
    assert apply_actions(packet, []) == []


def test_setfield_rejects_non_rewritable_field():
    with pytest.raises(ValueError):
        SetFieldAction(HeaderField.ETH_TYPE, 0x0800)


def test_actions_signature_distinguishes_behaviour():
    assert actions_signature([OutputAction(1)]) != actions_signature([OutputAction(2)])
    assert actions_signature([OutputAction(1)]) == actions_signature([OutputAction(1)])
    assert (actions_signature([SetFieldAction(HeaderField.IP_TOS, 1), OutputAction(1)])
            != actions_signature([OutputAction(1)]))
