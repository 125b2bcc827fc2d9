"""Unit tests for the RUM layer, its configuration, the acknowledgment
techniques and the reliable barrier layer."""

import pytest

from repro.controller import AckMode, Controller
from repro.core import (
    ALL_TECHNIQUES,
    ReliableBarrierLayer,
    RumConfig,
    RumLayer,
    chain_proxies,
    config_for_technique,
)
from repro.core.proxy import ProxyLayer
from repro.net import Network, triangle_topology
from repro.openflow import FlowMod, Match, OutputAction
from repro.packet.addresses import int_to_ip
from repro.sim import Simulator


# -- configuration -------------------------------------------------------------

def test_config_defaults_match_paper_parameters():
    config = RumConfig().validated()
    assert config.timeout == pytest.approx(0.3)
    assert config.probe_batch == 10
    assert config.probe_window == 30
    assert config.probe_interval == pytest.approx(0.01)


def test_config_rejects_unknown_technique():
    with pytest.raises(ValueError):
        config_for_technique("quantum")


def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        RumConfig(timeout=-1).validated()
    with pytest.raises(ValueError):
        RumConfig(probe_batch=0).validated()
    with pytest.raises(ValueError):
        RumConfig(preprobe_value=5, postprobe_value=5).validated()


def test_config_with_overrides_revalidates():
    config = config_for_technique("timeout")
    with pytest.raises(ValueError):
        config.with_overrides(assumed_rate=0)


# -- wiring --------------------------------------------------------------------------

def _build(technique, **overrides):
    sim = Simulator()
    network = Network(sim, triangle_topology(), seed=4)
    rum = RumLayer(sim, config_for_technique(technique, **overrides))
    rum.attach_network(network)
    controller = Controller(sim, ack_mode=AckMode.RUM_CONFIRMATION)
    for name in network.switch_names():
        controller.connect_switch(name, rum.controller_endpoint(name))
    rum.prepare()
    network.start()
    rum.start()
    return sim, network, rum, controller


def _rule(index, port):
    return FlowMod(Match(ip_src=int_to_ip(0x0A000001 + index), ip_dst="10.0.128.1"),
                   [OutputAction(port)], priority=100)


@pytest.mark.parametrize("technique", ALL_TECHNIQUES)
def test_every_technique_eventually_confirms(technique):
    sim, network, rum, controller = _build(technique)
    port = network.port_between("S2", "S3")
    acks = [controller.send_flowmod("S2", _rule(index, port)) for index in range(12)]
    sim.run(until=5.0)
    assert all(ack.acked for ack in acks)
    assert rum.unconfirmed_count() == 0


def _confirmations(rum, switch):
    """``xid -> RUM's confirmation time`` on one switch."""
    return {xid: confirmed
            for (name, xid), (_fwd, confirmed, _by) in rum.confirmation_log.items()
            if name == switch}


@pytest.mark.parametrize("technique", ["sequential", "general", "timeout"])
def test_confirmation_never_precedes_dataplane(technique):
    sim, network, rum, controller = _build(technique)
    port = network.port_between("S2", "S3")
    flowmods = [_rule(index, port) for index in range(40)]
    for flowmod in flowmods:
        controller.send_flowmod("S2", flowmod)
    sim.run(until=10.0)
    dataplane = {xid: time for time, xid in network.switch("S2").dataplane.apply_log}
    confirmations = _confirmations(rum, "S2")
    for flowmod in flowmods:
        assert flowmod.xid in confirmations
        assert confirmations[flowmod.xid] >= dataplane[flowmod.xid]


def test_barrier_baseline_confirms_before_dataplane_on_buggy_switch():
    sim, network, rum, controller = _build("barrier")
    port = network.port_between("S2", "S3")
    flowmods = [_rule(index, port) for index in range(40)]
    for flowmod in flowmods:
        controller.send_flowmod("S2", flowmod)
    sim.run(until=10.0)
    dataplane = {xid: time for time, xid in network.switch("S2").dataplane.apply_log}
    confirmations = _confirmations(rum, "S2")
    early = [xid for xid, confirmed in confirmations.items()
             if confirmed < dataplane.get(xid, float("inf"))]
    assert early  # the baseline really is unsafe on this switch


def test_rum_confirmation_messages_reach_controller_as_acks():
    sim, network, rum, controller = _build("general")
    port = network.port_between("S2", "S3")
    ack = controller.send_flowmod("S2", _rule(0, port))
    sim.run(until=3.0)
    assert ack.acked
    assert controller.ack_time("S2", ack.xid) is not None


def test_rum_consumes_probe_packetins_and_own_barriers():
    sim, network, rum, controller = _build("sequential")
    seen_packet_ins = []
    controller.on_packet_in(lambda switch, message: seen_packet_ins.append(message))
    port = network.port_between("S2", "S3")
    for index in range(15):
        controller.send_flowmod("S2", _rule(index, port))
    sim.run(until=5.0)
    # All probe traffic and RUM-generated replies are invisible to the controller.
    assert seen_packet_ins == []


def test_rum_emit_confirmations_can_be_disabled():
    sim, network, rum, controller = _build("general", emit_confirmations=False)
    port = network.port_between("S2", "S3")
    ack = controller.send_flowmod("S2", _rule(0, port))
    sim.run(until=3.0)
    assert not ack.acked
    assert rum.unconfirmed_count() == 0  # RUM still confirmed internally


def test_general_probing_uses_distinct_adjacent_switch_values():
    sim, network, rum, controller = _build("general")
    values = rum.technique.switch_values
    for left in network.switch_names():
        for right in rum.topology.switch_neighbors(left):
            assert values[left] != values[right]


def test_adaptive_assumed_rate_controls_safety():
    # A hopelessly optimistic model acknowledges rules before the data plane.
    sim, network, rum, controller = _build("adaptive", assumed_rate=5000.0,
                                            adaptive_base_delay=0.0)
    port = network.port_between("S2", "S3")
    flowmods = [_rule(index, port) for index in range(30)]
    for flowmod in flowmods:
        controller.send_flowmod("S2", flowmod)
    sim.run(until=5.0)
    dataplane = {xid: time for time, xid in network.switch("S2").dataplane.apply_log}
    confirmations = _confirmations(rum, "S2")
    assert any(confirmations[f.xid] < dataplane[f.xid] for f in flowmods)


def test_rum_requires_attach_before_prepare():
    sim = Simulator()
    rum = RumLayer(sim, config_for_technique("general"))
    with pytest.raises(RuntimeError):
        rum.prepare()


def test_proxy_layer_default_forwarding_is_transparent(monkeypatch):
    handled = []
    for name in ("handle_from_controller", "handle_from_switch"):
        original = getattr(ProxyLayer, name)

        def counted(self, switch_name, message, name=name, original=original):
            handled.append((name, type(message).__name__))
            original(self, switch_name, message)

        monkeypatch.setattr(ProxyLayer, name, counted)
    sim = Simulator()
    network = Network(sim, triangle_topology(), seed=4)
    proxy = ProxyLayer(sim, name="passthrough")
    endpoints = chain_proxies(network, [proxy])
    controller = Controller(sim, ack_mode=AckMode.BARRIER)
    for name, endpoint in endpoints.items():
        controller.connect_switch(name, endpoint)
    network.start()
    event = controller.send_barrier("S1")
    sim.run(until=1.0)
    assert event.triggered
    assert ("handle_from_controller", "BarrierRequest") in handled
    assert ("handle_from_switch", "BarrierReply") in handled


def test_proxy_rejects_duplicate_attachment():
    sim = Simulator()
    network = Network(sim, triangle_topology(), seed=4)
    proxy = ProxyLayer(sim)
    proxy.attach_switch("S1", network.controller_endpoint("S1"))
    with pytest.raises(ValueError):
        proxy.attach_switch("S1", network.controller_endpoint("S2"))


# -- reliable barrier layer -----------------------------------------------------------------

def _build_with_barrier_layer(technique="sequential", buffer_after_barrier=False):
    sim = Simulator()
    network = Network(sim, triangle_topology(), seed=4)
    rum = RumLayer(sim, config_for_technique(technique))
    barrier_layer = ReliableBarrierLayer(sim, buffer_after_barrier=buffer_after_barrier)
    endpoints = chain_proxies(network, [rum, barrier_layer])
    controller = Controller(sim, ack_mode=AckMode.BARRIER)
    for name, endpoint in endpoints.items():
        controller.connect_switch(name, endpoint)
    rum.prepare()
    network.start()
    rum.start()
    return sim, network, rum, barrier_layer, controller


def test_barrier_layer_withholds_reply_until_dataplane():
    sim, network, rum, barrier_layer, controller = _build_with_barrier_layer()
    port = network.port_between("S2", "S3")
    flowmods = [_rule(index, port) for index in range(20)]
    for flowmod in flowmods:
        controller.send_flowmod("S2", flowmod)
    barrier_event = controller.send_barrier("S2")
    sim.run(until=10.0)
    assert barrier_event.triggered
    reply_time = barrier_event.value
    last_dataplane = max(time for time, xid in network.switch("S2").dataplane.apply_log
                         if xid in {f.xid for f in flowmods})
    assert reply_time >= last_dataplane
    assert barrier_layer.held_barrier_delays()


def test_barrier_layer_without_pending_rules_replies_promptly():
    sim, network, rum, barrier_layer, controller = _build_with_barrier_layer()
    event = controller.send_barrier("S1")
    sim.run(until=2.0)
    assert event.triggered


def test_barrier_layer_buffers_commands_after_unconfirmed_barrier():
    sim, network, rum, barrier_layer, controller = _build_with_barrier_layer(
        technique="general", buffer_after_barrier=True
    )
    port = network.port_between("S2", "S3")
    controller.send_flowmod("S2", _rule(0, port))
    controller.send_barrier("S2")
    # These are sent while the barrier is still unresolved and must be buffered.
    controller.send_flowmod("S2", _rule(1, port))
    controller.send_flowmod("S2", _rule(2, port))
    sim.run(until=0.05)
    assert barrier_layer.messages_buffered >= 2
    sim.run(until=10.0)
    # Eventually everything is installed despite the buffering.
    assert network.switch("S2").rules_in_dataplane() >= 3
