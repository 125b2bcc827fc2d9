"""Compiled forwarding plans against the interpreter loop they replaced.

``compile_actions`` is the only interpreter of action lists in ``src/``; the
oracle below is the per-packet ``isinstance`` loop the data plane used to run,
kept here so the two can be compared on random action lists.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.openflow.actions import (
    ControllerAction,
    DropAction,
    OutputAction,
    SetFieldAction,
    apply_actions,
)
from repro.openflow.constants import CONTROLLER_PORT, FLOOD_PORT, FlowModCommand
from repro.openflow.match import Match
from repro.openflow.messages import FlowMod
from repro.packet.fields import FIELD_REGISTRY, HeaderField
from repro.packet.packet import make_ip_packet
from repro.sim.kernel import Simulator
from repro.switches.dataplane import DataPlane

_REWRITABLE = sorted(
    (field for field, spec in FIELD_REGISTRY.items() if spec.rewritable),
    key=lambda field: field.value,
)


def _oracle_apply_actions(packet, actions):
    """The interpreter as it was before plans: mutates ``packet`` in place."""
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

    # apply_actions: same ports in order, same rewritten headers, in place.
    applied = _packet()
    assert apply_actions(applied, actions) == expected_ports
    assert applied.header_values() == expected_packet.header_values()

    # The data plane applies the same plan through its cache.
    dataplane = DataPlane(Simulator())
    dataplane.apply_flowmod(FlowMod(Match(), actions, priority=1), now=0.0)
    for _ in range(2):  # a miss (compiles the plan), then a hit (reuses it)
        packet = _packet()
        before = list(packet.header_values())
        result = dataplane.process_packet(packet, in_port=4)
        assert list(result.output_ports) == [
            port for port in expected_ports if port != CONTROLLER_PORT]
        assert result.to_controller == (CONTROLLER_PORT in expected_ports)
        assert result.matched_entry is not None
        assert result.packet.header_values() == expected_packet.header_values()
        # Copy-on-rewrite: the input is never mutated, and it travels on as
        # the same object exactly when the plan rewrites nothing.
        assert packet.header_values() == before
        assert (result.packet is packet) == (not rewrites)
    dropped = 2 if not expected_ports else 0
    assert dataplane.packets_dropped == dropped


def test_plan_does_not_outlive_a_dataplane_mutation():
    # MODIFY rebinds ``entry.actions`` on the same FlowEntry object, and a
    # table miss is cached too: both must be forgotten on the next FlowMod.
    dataplane = DataPlane(Simulator())
    assert dataplane.process_packet(_packet(), in_port=1).matched_entry is None
    dataplane.apply_flowmod(FlowMod(Match(), [OutputAction(1)], priority=1), now=0.0)
    assert dataplane.process_packet(_packet(), in_port=1).output_ports == (1,)
    dataplane.apply_flowmod(
        FlowMod(Match(), [SetFieldAction(HeaderField.IP_TOS, 5), OutputAction(2)],
                priority=1, command=FlowModCommand.MODIFY), now=0.1)
    result = dataplane.process_packet(_packet(), in_port=1)
    assert result.output_ports == (2,)
    assert result.packet.get(HeaderField.IP_TOS) == 5
    dataplane.wipe()
    assert dataplane.process_packet(_packet(), in_port=1).matched_entry is None
