"""The fused switch hop against its specification.

A link now owns its receiver's ingress delay: one heap entry per hop, the
switch judging darkness at the carried arrival time and everything else at
the due time.  ``hop_model.replay`` states what that must amount to — wire
arrival, lost iff dark then, matched ``forwarding_latency`` later unless
crashed then — and knows nothing of trains, flushes or heap entries.  Every
script below is run on the real ``Network`` and handed to the model: same
deliveries (flow, sequence, created_at, delivered_at, trace), same PacketIns,
same per-switch drop and arrival counts.

Script times are aimed, not scattered: a rule change or a darkness edge is
placed relative to one packet's ingress window at one switch (before it,
inside it, after it), which is where the one-entry hop could go wrong.

The same scripts hold the links to the invariant that replaced their
``flushing`` flag: at every step boundary a direction has exactly one flush
entry on the heap (counting the one being dispatched) if and only if its
train is non-empty.
"""

from collections import Counter

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hop_model import Recorder

from repro.net.link import Link
from repro.net.network import Network
from repro.net.topology import linear_topology
from repro.openflow import FlowMod, Match, OutputAction
from repro.openflow.actions import ControllerAction, SetFieldAction
from repro.openflow.constants import FlowModCommand
from repro.packet.packet import make_ip_packet
from repro.sim import Simulator
from repro.switches.base import Switch

#: (ip_src, ip_dst, source host, destination host)
_FLOWS = (("10.0.0.1", "10.0.128.1", "H1", "H2"), ("10.0.0.2", "10.0.128.2", "H1", "H2"),
          ("10.0.128.9", "10.0.0.9", "H2", "H1"))
_LATENCY, _BANDWIDTH = 1e-4, 1e9

_bursts = st.lists(
    st.tuples(st.integers(0, 300),            # send time [us]
              st.integers(0, len(_FLOWS) - 1),
              st.integers(1, 4),              # packets sent back to back
              st.sampled_from((0, 100, 1400))),   # payload bytes
    min_size=1, max_size=5)
#: (burst, switch position, where in that switch's ingress window, what)
_aim = st.tuples(st.integers(0, 4), st.integers(0, 3),
                 st.floats(-1.5, 2.5, allow_nan=False))
_rule_edits = st.tuples(
    st.sampled_from((FlowModCommand.ADD, FlowModCommand.MODIFY, FlowModCommand.DELETE)),
    st.integers(0, len(_FLOWS) - 1),
    st.sampled_from(("forward", "rewrite", "punt", "punt+forward", "drop")),
    st.integers(99, 101))
#: A ``Switch`` method and its arguments.
_edges = st.sampled_from((("crash",), ("restore",), ("flap_ports", True),
                          ("flap_ports", False)))
_script = st.tuples(
    st.lists(st.sampled_from(("software", "hardware")), min_size=1, max_size=4),
    _bursts,
    st.lists(st.tuples(_aim, st.one_of(_rule_edits, _edges)), max_size=8),
    st.lists(st.integers(50, 900), max_size=3))       # run(until=...) cuts [us]


def _actions(network, name, what, towards):
    # Always onwards in the flow's own direction: packets carry no TTL.
    position = int(name[1:]) + (1 if towards == "H2" else -1)
    onwards = network.port_between(
        name, f"S{position}" if f"S{position}" in network.switches else towards)
    return {
        "forward": [OutputAction(onwards)],
        "rewrite": [SetFieldAction("tp_dst", 4000 + position), OutputAction(onwards)],
        "punt": [ControllerAction()],
        "punt+forward": [ControllerAction(), OutputAction(onwards)],
        "drop": [],
    }[what]


def _run(kinds, bursts, edits, cuts, watch=None):
    """Run one script; ``watch(sim, network, dispatching)`` is called before
    every step with the heap entry being dispatched, and after each run with
    ``None``."""
    sim = Simulator()
    network = Network(sim, linear_topology(len(kinds), kinds=kinds, link_latency=_LATENCY))
    if watch is not None:
        sim.observer = lambda sim, time, callback, args: watch(
            sim, network, (time, None, callback, args))
    network.start()
    names = list(network.switches)
    for name in names:
        for _src, dst, _source, towards in _FLOWS:
            network.switch(name).install_rule_directly(FlowMod(
                Match(ip_dst=dst), _actions(network, name, "forward", towards), priority=100))
    for time_us, flow, burst, payload in bursts:
        src, dst, source, _towards = _FLOWS[flow]
        for sequence in range(burst):
            sim.schedule_at(time_us * 1e-6, network.host(source).send, make_ip_packet(
                src, dst, payload_size=payload, flow_id=f"flow-{flow}",
                created_at=time_us * 1e-6, sequence=1000 * time_us + sequence))
    for (burst, position, fraction), edit in edits:
        time_us, _flow, _burst, payload = bursts[burst % len(bursts)]
        position %= len(names)
        switch = network.switch(names[position])
        # Where the burst's first packet would reach this switch on idle
        # links, coming from H1, plus ``fraction`` of the ingress delay.
        wire = _LATENCY + (payload + 42) * 8 / _BANDWIDTH
        when = (time_us * 1e-6 + (position + 1) * wire
                + sum(network.switch(name).ingress_latency for name in names[:position])
                + fraction * switch.ingress_latency)
        if isinstance(edit[0], FlowModCommand):
            command, flow, what, priority = edit
            sim.schedule_at(max(0.0, when), switch.install_rule_directly, FlowMod(
                Match(ip_dst=_FLOWS[flow][1]),
                _actions(network, switch.name, what, _FLOWS[flow][3]),
                command=command, priority=priority))
        else:
            sim.schedule_at(max(0.0, when), getattr(switch, edit[0]), *edit[1:])
    for cut in sorted(cuts):
        sim.run(until=cut * 1e-6)
        if watch is not None:
            watch(sim, network, None)
    sim.run()
    if watch is not None:
        watch(sim, network, None)
    return network


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(script=_script)
def test_the_fused_hop_is_the_specified_hop(monkeypatch, script):
    with monkeypatch.context() as patch:
        recorder = Recorder(patch)
        _run(*script)
    (recording,) = recorder.recordings
    assert recording.observed() == recording.predicted()


def test_the_model_is_not_vacuous(monkeypatch):
    # One burst of three, 1.1 us apart, through S1 (punting a copy of each)
    # into S2 (20 us of ingress): S2's ports flap 1 us after the first packet
    # reached them and are lit again before any of the three falls due.
    recorder = Recorder(monkeypatch)
    matched = []
    receive = Switch.receive_packet

    def counted(switch, packet, in_port, arrived_at):
        # Taken in (its trace moved on) and matched: the plan the switch
        # applied, cached or just compiled, names a table entry.
        trace = packet.trace
        receive(switch, packet, in_port, arrived_at)
        if packet.trace is not trace:
            plan = switch.dataplane.plan_cache.get(in_port, {}).get(packet.header_values())
            if plan is not None and plan[0] is not None:
                matched.append(switch.name)

    monkeypatch.setattr(Switch, "receive_packet", counted)
    _run(["software", "hardware"], [(10, 0, 3, 100)],
                   [((0, 1, 0.05), ("flap_ports", True)), ((0, 1, 0.5), ("flap_ports", False)),
                    ((0, 0, -1.0), (FlowModCommand.ADD, 0, "punt+forward", 101))], [120, 240])
    (recording,) = recorder.recordings
    deliveries, packet_ins, drops, received = recording.predicted()
    assert recording.observed() == (deliveries, packet_ins, drops, received)
    assert len(packet_ins) == 3 and received == {"S1": 3, "S2": 1} and drops == {}
    # Arrived dark, due lit: lost all the same.
    ((_when, host, _packet, trace),) = deliveries
    assert (host, trace) == ("H2", ("H1", "S1", "S2", "H2"))
    # ... and the one S2 received was matched (by its forward rule).
    assert matched.count("S2") == 1


def _one_flush_entry_per_non_empty_train(sim, network, dispatching):
    entries = Counter()
    for _time, _sequence, callback, args in sim._heap + [dispatching] * bool(dispatching):
        if getattr(callback, "__func__", None) is Link._flush_train:
            entries[id(args[0])] += 1
    for link in network.links:
        for direction in link._towards.values():
            assert entries[id(direction)] == bool(direction.train), (
                link.name, entries[id(direction)], len(direction.train))


@settings(max_examples=100, deadline=None)
@given(script=_script)
def test_a_direction_has_a_flush_entry_exactly_while_its_train_is_non_empty(script):
    _run(*script, watch=_one_flush_entry_per_non_empty_train)


def test_the_invariant_sees_trains_longer_than_one():
    # Back-to-back bursts of four: packets queue behind each other on every
    # link, so trains hold several packets while their flush waits.
    longest = [0]

    def watch(sim, network, dispatching):
        _one_flush_entry_per_non_empty_train(sim, network, dispatching)
        longest[0] = max([longest[0]] + [len(direction.train) for link in network.links
                                         for direction in link._towards.values()])

    _run(["software", "hardware"], [(0, 0, 4, 1400), (1, 1, 4, 1400), (2, 2, 4, 0),
                                    (2, 0, 4, 100)], [], [3, 40], watch=watch)
    assert longest[0] >= 4
