"""Unit tests for the switch models: control/data plane split, barrier
behaviour, data-plane lag, PacketOut/PacketIn handling and fault injection."""

import pytest

from repro.openflow import (
    BarrierRequest,
    BarrierReply,
    ControllerAction,
    EchoRequest,
    EchoReply,
    FeaturesRequest,
    FeaturesReply,
    FlowMod,
    Match,
    OutputAction,
    PacketOut,
    StatsRequest,
    StatsReply,
)
from repro.openflow.connection import Connection
from repro.openflow.constants import StatsType
from repro.packet.packet import make_ip_packet
from repro.sim import Simulator
from repro.faults import DataPlaneFaultHarness, DelaySpikeFault, ReorderFault
from repro.sim.rng import SeededRandom
from repro.switches import (
    HardwareSwitch,
    SoftwareSwitch,
    Switch,
    hp5406zl_profile,
    reordering_switch_profile,
    software_switch_profile,
)
from repro.switches.profiles import BarrierMode


def _wired_switch(profile):
    sim = Simulator()
    switch = Switch(sim, "SW", profile, datapath_id=1)
    connection = Connection(sim, latency=0.0005)
    switch.connect_controller(connection.side_a)
    replies = []
    connection.side_b.on_message(lambda message: replies.append((sim.now, message)))
    switch.start()
    return sim, switch, connection.side_b, replies


def _flowmods(count, out_port=1):
    from repro.packet.addresses import int_to_ip

    return [
        FlowMod(Match(ip_src=int_to_ip(0x0A000001 + index), ip_dst="10.0.128.1"),
                [OutputAction(out_port)], priority=100)
        for index in range(count)
    ]


# -- profiles ------------------------------------------------------------------

def test_profiles_validate():
    for factory in (software_switch_profile, hp5406zl_profile, reordering_switch_profile):
        factory().validate()


def test_profile_override_copy():
    base = hp5406zl_profile()
    changed = base.with_overrides(flowmod_rate=100.0)
    assert changed.flowmod_rate == 100.0
    assert base.flowmod_rate != 100.0


def test_profile_invalid_rate_rejected():
    with pytest.raises(ValueError):
        hp5406zl_profile().with_overrides(flowmod_rate=0).validate()


@pytest.mark.parametrize("rate", ["flowmod_rate", "packet_out_rate", "packet_in_rate"])
def test_a_profile_rejects_a_nan_rate(rate):
    # ``rate <= 0`` let NaN through.
    with pytest.raises(ValueError, match="positive"):
        hp5406zl_profile().with_overrides(**{rate: float("nan")}).validate()


@pytest.mark.parametrize("latency", [-1e-5, float("nan")])
def test_a_profile_rejects_a_negative_or_nan_forwarding_latency(latency):
    # Links add it to every due time they push onto the heap unchecked.
    with pytest.raises(ValueError, match="forwarding_latency"):
        hp5406zl_profile().with_overrides(forwarding_latency=latency).validate()


def test_reordering_profile_reorders():
    assert reordering_switch_profile().reorders_across_barriers
    assert not hp5406zl_profile().reorders_across_barriers


# -- software switch: correct behaviour ---------------------------------------------

def test_software_switch_barrier_waits_for_dataplane():
    sim, switch, endpoint, replies = _wired_switch(software_switch_profile())
    for flowmod in _flowmods(20):
        endpoint.send(flowmod)
    endpoint.send(BarrierRequest())
    sim.run(until=1.0)
    barrier_replies = [(time, msg) for time, msg in replies if isinstance(msg, BarrierReply)]
    assert len(barrier_replies) == 1
    barrier_time = barrier_replies[0][0]
    last_dataplane_apply = max(time for time, _xid in switch.dataplane.apply_log)
    assert barrier_time >= last_dataplane_apply
    assert switch.planes_agree()


def test_software_switch_applies_rules_immediately():
    sim, switch, endpoint, _replies = _wired_switch(software_switch_profile())
    endpoint.send(_flowmods(1)[0])
    sim.run(until=0.1)
    assert switch.rules_in_dataplane() == 1
    assert switch.rules_in_controlplane() == 1


# -- hardware switch: buggy behaviour --------------------------------------------------

def test_hardware_switch_barrier_reply_precedes_dataplane():
    sim, switch, endpoint, replies = _wired_switch(hp5406zl_profile())
    for flowmod in _flowmods(100):
        endpoint.send(flowmod)
    endpoint.send(BarrierRequest())
    sim.run(until=5.0)
    barrier_time = next(time for time, msg in replies if isinstance(msg, BarrierReply))
    last_dataplane_apply = max(time for time, _xid in switch.dataplane.apply_log)
    assert barrier_time < last_dataplane_apply
    # The data plane eventually catches up.
    assert switch.rules_in_dataplane() == 100


def test_hardware_dataplane_lag_grows_with_burst_size():
    sim, switch, endpoint, _replies = _wired_switch(hp5406zl_profile())
    for flowmod in _flowmods(200):
        endpoint.send(flowmod)
    sim.run(until=10.0)
    control_log = switch.controlplane.control_apply_log
    lags = [apply_time - control_log[xid]
            for apply_time, xid in switch.dataplane.apply_log if xid in control_log]
    assert min(lags) >= 0
    # The lag of the last rules is substantially larger than the first ones.
    assert lags[-1] > lags[0]
    assert lags[-1] > 0.1


def test_hardware_switch_planes_disagree_transiently():
    sim, switch, endpoint, _replies = _wired_switch(hp5406zl_profile())
    for flowmod in _flowmods(100):
        endpoint.send(flowmod)
    sim.run(until=0.15)
    assert switch.rules_in_controlplane() > switch.rules_in_dataplane()
    sim.run(until=5.0)
    assert switch.planes_agree()


def test_correct_barrier_mode_profile_waits():
    profile = hp5406zl_profile().with_overrides(barrier_mode=BarrierMode.CORRECT)
    sim, switch, endpoint, replies = _wired_switch(profile)
    for flowmod in _flowmods(30):
        endpoint.send(flowmod)
    endpoint.send(BarrierRequest())
    sim.run(until=5.0)
    barrier_time = next(time for time, msg in replies if isinstance(msg, BarrierReply))
    last_apply = max(time for time, _xid in switch.dataplane.apply_log)
    assert barrier_time >= last_apply


def test_reordering_switch_changes_dataplane_order():
    profile = reordering_switch_profile()
    sim, switch, endpoint, _replies = _wired_switch(profile)
    flowmods = _flowmods(40)
    for flowmod in flowmods:
        endpoint.send(flowmod)
    sim.run(until=5.0)
    applied_order = [xid for _time, xid in switch.dataplane.apply_log]
    sent_order = [flowmod.xid for flowmod in flowmods]
    assert sorted(applied_order) == sorted(sent_order)
    assert applied_order != sent_order


# -- control plane services -----------------------------------------------------------

def test_echo_features_and_stats_replies():
    sim, switch, endpoint, replies = _wired_switch(software_switch_profile())
    endpoint.send(_flowmods(1)[0])
    endpoint.send(EchoRequest(payload=b"ping"))
    endpoint.send(FeaturesRequest())
    endpoint.send(StatsRequest())
    sim.run(until=0.5)
    types = [type(message) for _time, message in replies]
    assert EchoReply in types
    assert FeaturesReply in types
    assert StatsReply in types
    stats = next(msg for _t, msg in replies if isinstance(msg, StatsReply))
    assert len(stats.body) == 1


def test_flow_stats_count_what_the_data_plane_forwarded():
    sim, switch, endpoint, replies = _wired_switch(hp5406zl_profile())
    switch.attach_port(1, lambda packet: None)
    flowmod = _flowmods(1)[0]
    endpoint.send(flowmod)
    endpoint.send(StatsRequest(StatsType.FLOW, xid=11))
    sim.run(until=0.002)  # in the control plane, not yet in hardware
    sim.run(until=2.0)
    packets = [make_ip_packet("10.0.0.1", "10.0.128.1") for _ in range(3)]
    for packet in packets:
        switch.receive_packet(packet, in_port=2, arrived_at=sim.now)
    endpoint.send(StatsRequest(StatsType.FLOW, xid=12))
    endpoint.send(StatsRequest(StatsType.AGGREGATE, xid=13))
    sim.run(until=3.0)
    stats = {msg.xid: msg.body for _t, msg in replies if isinstance(msg, StatsReply)}
    assert [flow["packets"] for flow in stats[11]] == [0]
    assert switch.dataplane.table.entries[0].packet_count == 3
    assert [(flow["packets"], flow["bytes"]) for flow in stats[12]] == [
        (3, sum(packet.total_size for packet in packets))]
    assert stats[13] == [{"flows": 1, "packets": 3}]


def test_packet_out_injects_on_port():
    sim = Simulator()
    switch = SoftwareSwitch(sim, "S")
    received = []
    switch.attach_port(1, received.append)
    connection = Connection(sim)
    switch.connect_controller(connection.side_a)
    switch.start()
    packet = make_ip_packet("10.0.0.1", "10.0.0.2")
    connection.side_b.send(PacketOut(packet, [OutputAction(1)]))
    sim.run(until=0.5)
    assert len(received) == 1


def test_packet_out_with_two_controller_actions_sends_two_distinct_copies():
    # The PacketIn is built when it is sent, after the loop over the ports
    # ended: each one must still carry the copy captured for *its* action.
    sim = Simulator()
    switch = SoftwareSwitch(sim, "S")
    connection = Connection(sim)
    switch.connect_controller(connection.side_a)
    packet_ins = []
    connection.side_b.on_message(packet_ins.append)
    switch.start()
    connection.side_b.send(PacketOut(make_ip_packet("10.0.0.1", "10.0.0.2"),
                                     [ControllerAction(), ControllerAction()]))
    sim.run(until=0.5)
    first, second = (message.packet for message in packet_ins)
    assert first is not second
    assert first.headers == second.headers


def test_packet_out_rate_is_capped():
    profile = hp5406zl_profile()
    sim = Simulator()
    switch = HardwareSwitch(sim, "S2", profile=profile)
    received = []
    switch.attach_port(1, lambda packet: received.append(sim.now))
    connection = Connection(sim)
    switch.connect_controller(connection.side_a)
    switch.start()
    for _ in range(300):
        connection.side_b.send(
            PacketOut(make_ip_packet("10.0.0.1", "10.0.0.2"), [OutputAction(1)])
        )
    sim.run(until=5.0)
    assert len(received) == 300
    duration = received[-1] - received[0]
    rate = (len(received) - 1) / duration
    assert rate == pytest.approx(profile.packet_out_rate, rel=0.15)


def test_table_miss_drops_packet():
    sim = Simulator()
    switch = SoftwareSwitch(sim, "S")
    outputs = []
    switch.attach_port(1, outputs.append)
    switch.start()
    # What a link does with a packet that leaves the wire now.
    sim.schedule_callback(switch.ingress_latency, switch.receive_packet,
                          make_ip_packet("10.0.0.1", "10.0.0.2"), 1, sim.now)
    sim.run(until=0.1)
    assert outputs == []
    assert switch.dataplane.packets_dropped == 1


def test_install_rule_directly_updates_both_planes():
    sim = Simulator()
    switch = SoftwareSwitch(sim, "S")
    switch.install_rule_directly(
        FlowMod(Match(ip_src="10.0.0.1"), [OutputAction(1)], priority=5)
    )
    assert switch.rules_in_dataplane() == 1
    assert switch.rules_in_controlplane() == 1
    assert switch.planes_agree()


# -- fault injection -----------------------------------------------------------------

def _inject(switch, fault, seed=7):
    fault.arm(switch.sim, SeededRandom(seed).fork(type(fault).__name__))
    return DataPlaneFaultHarness(switch, [fault])


def test_delay_spike_fault_delays_dataplane():
    sim, switch, endpoint, _replies = _wired_switch(software_switch_profile())
    fault = DelaySpikeFault(probability=1.0, spike=1.0)
    _inject(switch, fault)
    endpoint.send(_flowmods(1)[0])
    sim.run(until=0.5)
    assert switch.rules_in_dataplane() == 0
    sim.run(until=2.0)
    assert switch.rules_in_dataplane() == 1
    assert sum(fault.counters().values()) == 1


def test_reorder_fault_shuffles_applications():
    sim, switch, endpoint, _replies = _wired_switch(software_switch_profile())
    _inject(switch, ReorderFault(window=4, hold_time=0.01), seed=3)
    flowmods = _flowmods(16)
    for flowmod in flowmods:
        endpoint.send(flowmod)
    sim.run(until=2.0)
    applied = [xid for _time, xid in switch.dataplane.apply_log]
    assert sorted(applied) == sorted(f.xid for f in flowmods)
    assert applied != [f.xid for f in flowmods]


def test_fault_injector_remove_restores_behaviour():
    sim, switch, endpoint, _replies = _wired_switch(software_switch_profile())
    _inject(switch, DelaySpikeFault(probability=1.0, spike=5.0)).remove()
    endpoint.send(_flowmods(1)[0])
    sim.run(until=0.5)
    assert switch.rules_in_dataplane() == 1
