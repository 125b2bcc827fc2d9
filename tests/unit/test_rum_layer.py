"""Unit tests for the RUM layer, the techniques' declared parameters, the
acknowledgment techniques and the reliable barrier layer."""

import runpy
from pathlib import Path

import pytest

from repro.controller import AckMode, Controller
from repro.core import (
    ReliableBarrierLayer,
    RumLayer,
    chain_proxies,
    get_technique,
)
from repro.core.proxy import ProxyLayer
from repro.core.techniques.base import FALLBACK_TIMEOUT
from repro.core.techniques.registry import TECHNIQUE_NO_WAIT, available_techniques
from repro.experiments.common import RuleInstallParams, run_rule_install
from repro.experiments.figures import FIGURES, table1_rows
from repro.net import Network, triangle_topology
from repro.openflow import BarrierReply, FlowMod, FlowModCommand, Match, OutputAction
from repro.packet.addresses import int_to_ip
from repro.faults import ChannelHook, ControlChannelHarness, FaultPlan, get_fault
from repro.openflow.connection import Connection
from repro.sim import Simulator
from repro.sim.rng import SeededRandom

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


# -- declared parameters -------------------------------------------------------

def test_techniques_declare_the_paper_parameters_and_defaults():
    declared = {name: (get_technique(name).uses_rum,
                       {key: parameter.default
                        for key, parameter in get_technique(name).parameters.items()})
                for name in available_techniques()}
    assert declared == {
        "adaptive": (True, {"assumed_rate": 250.0}),
        "barrier": (True, {}),
        "general": (True, {"probe_window": 30, "probe_interval": 0.01}),
        "sequential": (True, {"probe_batch": 10, "probe_interval": 0.01}),
        "timeout": (True, {"timeout": 0.3}),
        "no-wait": (False, {}),
    }


#: ``RumLayer.describe()`` at every technique's defaults.  It is hashed into
#: every digest as ``rum_description``: a change in wording moves them all.
DEFAULT_DESCRIPTIONS = {
    "adaptive": "RUM[adaptive timeout (assumed rate 250 mods/s, margin 0 ms)]",
    "barrier": "RUM[barrier baseline (one barrier per 1 FlowMods)]",
    "general": "RUM[general probing (up to 30 oldest rules probed every 10 ms, "
               "field ip_tos)]",
    "sequential": "RUM[sequential probing (probe rule update after 10 "
                  "modifications, probes every 10 ms)]",
    "timeout": "RUM[static timeout (300 ms after barrier reply)]",
}


def test_default_descriptions_are_pinned():
    assert {name: RumLayer(Simulator(), get_technique(name)).describe()
            for name in available_techniques()
            if get_technique(name).uses_rum} == DEFAULT_DESCRIPTIONS


def test_an_override_sets_the_declared_parameter():
    rum = RumLayer(Simulator(), get_technique("timeout"), {"timeout": 0})
    assert rum.technique.timeout == 0  # a zero timeout confirms on the reply
    assert get_technique("timeout").timeout.default == pytest.approx(0.3)


def _quick(**overrides):
    return RuleInstallParams.quick(rule_count=5).scaled(rum_overrides=overrides)


@pytest.mark.parametrize("technique, key, value", [
    ("timeout", "timeout", -0.1),
    ("timeout", "timeout", float("nan")),
    ("timeout", "timeout", float("inf")),
    ("adaptive", "assumed_rate", 0.0),
    ("adaptive", "assumed_rate", float("nan")),
    ("adaptive", "assumed_rate", float("inf")),
    ("sequential", "probe_interval", 0.0),
    ("sequential", "probe_interval", float("nan")),
    ("general", "probe_interval", -0.01),
    ("general", "probe_interval", float("inf")),
    ("sequential", "probe_batch", 0),
    ("sequential", "probe_batch", 2.5),
    ("sequential", "probe_batch", float("nan")),
    ("general", "probe_window", 0),
    ("general", "probe_window", float("inf")),
    ("general", "probe_window", True),
])
def test_a_bad_parameter_is_refused_when_the_session_is_built(technique, key, value):
    with pytest.raises(ValueError, match=rf"technique {technique!r}: parameter {key!r}"):
        run_rule_install(technique, _quick(**{key: value}))


@pytest.mark.parametrize("technique, key", [
    ("general", "probe_batch"),
    ("barrier", "timeout"),
    ("timeout", "probe_field"),
    (TECHNIQUE_NO_WAIT, "probe_interval"),
])
def test_an_undeclared_override_is_refused(technique, key):
    with pytest.raises(ValueError, match=rf"technique {technique!r} has no parameter {key!r}"):
        run_rule_install(technique, _quick(**{key: 5}))


def _assert_declared(technique, overrides):
    undeclared = set(overrides) - set(get_technique(technique).parameters)
    assert not undeclared, f"{technique} does not declare {sorted(undeclared)}"


@pytest.mark.parametrize("row", [
    (figure.name, row) for figure in FIGURES.values() if figure.name != "microbench"
    for row in figure.rows] + [("table1_rows()", row) for row in table1_rows()],
    ids=lambda row: f"{row[0]}:{row[1][0]}")
def test_every_figure_row_overrides_only_declared_parameters(row):
    _figure, (_label, technique, keywords) = row
    _assert_declared(technique, keywords.get("rum_overrides", {}))


def test_the_probe_overhead_sweep_overrides_only_declared_parameters(monkeypatch):
    seen = []

    def recorded(technique, params):
        seen.append(technique)
        _assert_declared(technique, params.rum_overrides)
        return run_rule_install(technique, params)

    main = runpy.run_path(str(EXAMPLES / "probe_overhead_sweep.py"))["main"]
    monkeypatch.setitem(main.__globals__, "run_rule_install", recorded)
    main(5)
    assert seen.count("sequential") == 5


# -- wiring --------------------------------------------------------------------------

def _build(technique, **overrides):
    sim = Simulator()
    network = Network(sim, triangle_topology(), seed=4)
    rum = RumLayer(sim, get_technique(technique), overrides)
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


@pytest.mark.parametrize("technique", sorted(DEFAULT_DESCRIPTIONS))
def test_every_technique_eventually_confirms(technique):
    sim, network, rum, controller = _build(technique)
    port = network.port_between("S2", "S3")
    acks = [controller.send_flowmod("S2", _rule(index, port)) for index in range(12)]
    sim.run(until=5.0)
    assert all(ack.acked for ack in acks)
    assert len(rum.pending("S2")) == 0


def test_general_answers_a_delete_by_its_fallback_timeout():
    # A deleted rule gets no probe: ``general`` confirms it only after the
    # conservative fallback timeout, while the rule it deletes was probed.
    sim, network, rum, controller = _build("general")
    port = network.port_between("S2", "S3")
    add = _rule(0, port)
    controller.send_flowmod("S2", add)
    sim.run(until=1.0)
    # It keeps the rule's actions, so only the DELETE itself stops a probe.
    delete = FlowMod(add.match, add.actions, priority=add.priority,
                     command=FlowModCommand.DELETE_STRICT)
    ack = controller.send_flowmod("S2", delete)
    sim.run(until=3.0)
    assert ack.acked
    forwarded, confirmed, by = rum.confirmation_log[("S2", delete.xid)]
    assert by == "fallback"
    assert confirmed - forwarded == pytest.approx(FALLBACK_TIMEOUT)
    assert rum.confirmation_log[("S2", add.xid)][2] == "probe"


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
    # RUM's confirmation crossed the channel: the ack is its arrival.
    _forwarded, confirmed_at, how = rum.confirmation_log[("S2", ack.xid)]
    assert how == "probe" and confirmed_at < ack.acked_at


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


def test_general_probing_uses_distinct_adjacent_switch_values():
    sim, network, rum, controller = _build("general")
    values = rum.technique.switch_values
    for left in network.switch_names():
        for right in rum.topology.switch_neighbors(left):
            assert values[left] != values[right]


def test_adaptive_assumed_rate_controls_safety():
    # A hopelessly optimistic model acknowledges rules before the data plane.
    sim, network, rum, controller = _build("adaptive", assumed_rate=5000.0)
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
    rum = RumLayer(sim, get_technique("general"))
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
    rum = RumLayer(sim, get_technique(technique))
    barrier_layer = ReliableBarrierLayer(sim, buffer_after_barrier=buffer_after_barrier)
    endpoints = chain_proxies(network, [rum, barrier_layer])
    controller = Controller(sim, ack_mode=AckMode.BARRIER)
    for name, endpoint in endpoints.items():
        controller.connect_switch(name, endpoint)
    rum.prepare()
    network.start()
    rum.start()
    return sim, network, rum, barrier_layer, controller


@pytest.mark.parametrize("faults", [None, [], ["ack-duplicate(probability=1.0,copies=1)"]],
                         ids=["bare", "harness", "harness-duplicating"])
def test_a_send_never_reaches_the_peers_handler_before_it_returns(faults):
    # What lets the barrier layer forward a released barrier's reply and pop
    # it afterwards: forwarding cannot re-enter _try_release, even at zero
    # latency and through the fault harness (which fabricates copies too).
    sim = Simulator()
    connection = Connection(sim, name="ctl-S", latency=0.0)
    handled = []
    connection.side_b.on_message(handled.append)
    if faults is not None:
        armed = [get_fault(spec.fault)(**spec.params)
                 for fault in faults for spec in FaultPlan.from_string(fault).specs]
        for fault in armed:
            fault.arm(sim, SeededRandom(3))
        ControlChannelHarness(connection, armed)
    connection.side_a.send(BarrierReply(xid=7))
    assert handled == []
    sim.run()
    assert [message.xid for message in handled] == [7] * (2 if faults else 1)
    assert sim.now == 0.0


def test_a_channel_refuses_a_latency_it_could_not_schedule():
    # Delivery is pushed onto the kernel's heap unchecked, so each delay is
    # checked where it enters: the channel's latency and a fault's extra one.
    with pytest.raises(ValueError, match="latency"):
        Connection(Simulator(), latency=float("nan"))
    connection = Connection(Simulator(), name="ctl-S")
    hook = ChannelHook(ControlChannelHarness(connection, []), 0)
    for bad in (-1e-3, float("nan")):
        with pytest.raises(ValueError, match="extra latency"):
            hook.forward(0, BarrierReply(xid=1), bad)


def test_barrier_layer_withholds_reply_until_dataplane(monkeypatch):
    # When the switch's own BarrierReply reaches the layer, read at the call.
    switch_replies = []
    handle = ReliableBarrierLayer.handle_from_switch

    def observed(layer, switch_name, message):
        if isinstance(message, BarrierReply):
            switch_replies.append(layer.sim.now)
        handle(layer, switch_name, message)

    monkeypatch.setattr(ReliableBarrierLayer, "handle_from_switch", observed)
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
    # The switch answered before its data plane caught up; the controller
    # hears the reply only after the batch's last data-plane write.
    assert len(switch_replies) == 1
    assert switch_replies[0] < last_dataplane < reply_time


def test_barrier_layer_without_pending_rules_replies_promptly():
    sim, network, rum, barrier_layer, controller = _build_with_barrier_layer()
    event = controller.send_barrier("S1")
    sim.run(until=2.0)
    assert event.triggered


def test_barrier_layer_buffers_commands_after_unconfirmed_barrier(monkeypatch):
    # Counted at the call boundary: what a controller message left in the buffer.
    buffered = []
    handle = ReliableBarrierLayer.handle_from_controller

    def counted(layer, switch_name, message):
        handle(layer, switch_name, message)
        if message in layer._buffered[switch_name]:
            buffered.append(message)

    monkeypatch.setattr(ReliableBarrierLayer, "handle_from_controller", counted)
    sim, network, rum, barrier_layer, controller = _build_with_barrier_layer(
        technique="general", buffer_after_barrier=True
    )
    port = network.port_between("S2", "S3")
    controller.send_flowmod("S2", _rule(0, port))
    controller.send_barrier("S2")
    # These are sent while the barrier is still unresolved and must be buffered.
    later = [_rule(1, port), _rule(2, port)]
    for flowmod in later:
        controller.send_flowmod("S2", flowmod)
    sim.run(until=0.05)
    assert buffered == later
    sim.run(until=10.0)
    # Eventually everything is installed despite the buffering.
    assert network.switch("S2").dataplane.occupancy() >= 3


def test_barrier_layer_releases_barriers_in_order_then_stops_buffering(monkeypatch):
    buffered = []
    handle = ReliableBarrierLayer.handle_from_controller

    def counted(layer, switch_name, message):
        handle(layer, switch_name, message)
        if message in layer._buffered[switch_name]:
            buffered.append(message)

    monkeypatch.setattr(ReliableBarrierLayer, "handle_from_controller", counted)
    sim, network, rum, barrier_layer, controller = _build_with_barrier_layer(
        technique="general", buffer_after_barrier=True
    )
    port = network.port_between("S2", "S3")
    controller.send_flowmod("S2", _rule(0, port))
    first = controller.send_barrier("S2")
    second_rule = _rule(1, port)
    controller.send_flowmod("S2", second_rule)
    second = controller.send_barrier("S2")
    sim.run(until=5.0)
    assert first.triggered and second.triggered
    assert first.value < second.value
    assert barrier_layer.barriers_held == 2
    assert len(buffered) == 2 and buffered[0] is second_rule
    # Both barriers are released: a later rule goes straight to the switch.
    installed = network.switch("S2").dataplane.occupancy()
    late = _rule(2, port)
    controller.send_flowmod("S2", late)
    sim.run(until=10.0)
    assert late not in buffered
    assert network.switch("S2").dataplane.occupancy() == installed + 1
