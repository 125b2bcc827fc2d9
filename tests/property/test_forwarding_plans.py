"""Compiled forwarding plans against the interpreter loop they replaced.

``compile_actions`` is the only interpreter of action lists in ``src/``; the
oracle below is the per-packet ``isinstance`` loop the data plane used to run,
kept here so the two can be compared on random action lists.

The switch applies a cached plan itself and leaves a miss to the data plane
(``DataPlane.process_packet``), so the same packet handed to a switch twice,
a miss and then a hit, must leave it the same way both times.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.openflow.actions import (
    ControllerAction,
    DropAction,
    OutputAction,
    SetFieldAction,
    compile_actions,
    rewritten,
)
from repro.openflow.constants import CONTROLLER_PORT, FLOOD_PORT, FlowModCommand
from repro.openflow.match import Match
from repro.openflow.messages import FlowMod
from repro.packet.fields import FIELD_REGISTRY, HeaderField
from repro.packet.packet import make_ip_packet
from repro.sim.kernel import Simulator
from repro.switches import Switch, software_switch_profile
from repro.switches.dataplane import DataPlane

_REWRITABLE = sorted(
    (field for field, spec in FIELD_REGISTRY.items() if spec.rewritable),
    key=lambda field: field.value,
)


def _oracle_apply_actions(packet, actions):
    """The interpreter as it was before plans, one ``Packet.set`` per
    rewrite (each gives ``packet`` a new header tuple)."""
    outputs = []
    for action in actions:
        if isinstance(action, SetFieldAction):
            packet.set(action.field, action.value)
        elif isinstance(action, OutputAction):
            outputs.append(action.port)
        elif isinstance(action, ControllerAction):
            outputs.append(CONTROLLER_PORT)
        elif isinstance(action, DropAction):
            return []
    return outputs


@st.composite
def _set_fields(draw):
    field = draw(st.sampled_from(_REWRITABLE))
    value = draw(st.integers(0, min(FIELD_REGISTRY[field].max_value, 7)))
    return SetFieldAction(field, value)


_ACTIONS = st.lists(
    st.one_of(
        _set_fields(),
        st.sampled_from([1, 2, 2, 3, FLOOD_PORT]).map(OutputAction),
        st.just(ControllerAction()),
        st.just(DropAction()),
    ),
    max_size=7,
)


def _packet():
    return make_ip_packet("10.0.0.1", "10.0.0.2", payload_size=64, flow_id="f")


@settings(max_examples=300, deadline=None)
@given(_ACTIONS)
def test_compiled_plan_agrees_with_the_interpreter(actions):
    expected_packet = _packet()
    expected_ports = _oracle_apply_actions(expected_packet, actions)
    rewrites = any(isinstance(action, SetFieldAction) for action in itertools.takewhile(
        lambda action: not isinstance(action, DropAction), actions))

    # compile_actions: same ports in order; rewritten: same rewritten headers.
    compiled_rewrites, ports = compile_actions(actions)
    assert list(ports) == expected_ports
    assert rewritten(_packet().header_values(), compiled_rewrites) == expected_packet.header_values()

    # The data plane applies the same plan through its cache.
    dataplane = DataPlane(Simulator())
    dataplane.apply_flowmod(FlowMod(Match(), actions, priority=1), now=0.0)
    dropped = 0
    for _ in range(2):  # the second looks the table up again, and reuses the entry's plan
        packet = _packet()
        before = packet.header_values()
        result = dataplane.process_packet(packet, in_port=4)
        assert list(result.output_ports) == [
            port for port in expected_ports if port != CONTROLLER_PORT]
        assert result.to_controller == (CONTROLLER_PORT in expected_ports)
        assert result.matched_entry is not None
        assert result.packet.header_values() == expected_packet.header_values()
        # Copy-on-rewrite: the input is never mutated (it keeps the very
        # tuple it came with), and it travels on as the same object exactly
        # when the plan rewrites nothing.
        assert packet.header_values() is before
        assert (result.packet is packet) == (not rewrites)
        dropped += not (result.output_ports or result.to_controller)
    assert dropped == (2 if not expected_ports else 0)


def _switch():
    """A switch on ports 1-3 whose output (``(port, header tuple, whether it
    is the very packet handed over)`` per transmission, ``(in_port, header
    tuple)`` per PacketIn) :func:`_hand_over` returns."""
    switch = Switch(Simulator(), "S", software_switch_profile(), datapath_id=1)
    switch.out = []
    for port in (1, 2, 3):
        switch.attach_port(port, lambda packet, port=port: switch.out.append(
            (port, packet.header_values(), packet is switch.handed_over)))

    def punted(build):
        message = build()
        switch.out.append((message.in_port, message.packet.header_values()))

    switch.controlplane.send_packet_in = punted
    return switch


def _hand_over(switch, packet, in_port=4, arrived_at=None):
    """What a link does with ``packet`` that arrived at ``arrived_at`` (now
    by default) and is due now; returns what left."""
    switch.out, switch.handed_over = [], packet
    switch.receive_packet(packet, in_port,
                          switch.sim.now if arrived_at is None else arrived_at)
    return switch.out


def test_plan_does_not_outlive_a_dataplane_mutation():
    # MODIFY rebinds ``entry.actions`` on the same FlowEntry object, and a
    # table miss is cached too: both must be forgotten on the next FlowMod,
    # by the plans the switch applies (each state is handed the packet
    # twice: the second is a hit).
    switch, packet = _switch(), _packet()
    values = packet.header_values()
    for _ in range(2):
        assert _hand_over(switch, packet) == []
    switch.install_rule_directly(FlowMod(Match(), [OutputAction(1)], priority=1))
    for _ in range(2):
        assert _hand_over(switch, packet) == [(1, values, True)]
    switch.install_rule_directly(
        FlowMod(Match(), [SetFieldAction(HeaderField.IP_TOS, 5), OutputAction(2)],
                priority=1, command=FlowModCommand.MODIFY))
    for _ in range(2):
        ((port, out_values, same),) = _hand_over(switch, packet)
        assert (port, out_values[1:] != values[1:], same) == (2, True, False)
    switch.dataplane.wipe()
    for _ in range(2):
        assert _hand_over(switch, packet) == []


_MATCHES = (Match(), Match(ip_dst="10.0.0.2"), Match(ip_dst="10.0.0.9"),
            Match(in_port=4), Match(in_port=1, ip_dst="10.0.0.2"))


@settings(max_examples=300, deadline=None)
@given(rules=st.lists(st.tuples(st.sampled_from(_MATCHES), st.integers(1, 3), _ACTIONS),
                      max_size=4),
       state=st.sampled_from(("up", "flapped", "crashed")),
       in_port=st.sampled_from((1, 4)))
def test_a_hit_forwards_exactly_as_the_miss_that_cached_its_plan(rules, state, in_port):
    # Rewriting, punting, flooding, dropping or matching nothing; on a switch
    # that is up, whose ports went dark after the packet arrived, or that
    # crashed after it arrived (its rules installed while it was down).
    switch = _switch()
    switch.sim.run(until=1.0)
    if state == "crashed":
        switch.crash()
    for match, priority, actions in rules:
        switch.install_rule_directly(FlowMod(match, actions, priority=priority))
    if state == "flapped":
        switch.flap_ports(True)
    misses, forward = [], switch._forward
    switch._forward = lambda *args: misses.append(args) or forward(*args)
    packet = _packet()
    values = packet.header_values()
    miss = _hand_over(switch, packet, in_port, arrived_at=0.5)
    hit = _hand_over(switch, packet, in_port, arrived_at=0.5)
    assert hit == miss
    # A rewrite went out on a copy: the packet handed over kept its headers.
    assert packet.header_values() is values
    # The first missed the plan cache and the second hit it; a crashed
    # switch forwards nothing and caches no plan, so both of its missed.
    assert len(misses) == (2 if state == "crashed" else 1)
    assert (switch.dataplane.plan_cache == {}) == (state == "crashed")
    # Dark ports transmit nothing (a PacketIn still goes out); a crashed
    # switch sends nothing at all.
    if state == "flapped":
        assert all(len(out) == 2 for out in miss)
    elif state == "crashed":
        assert miss == []
