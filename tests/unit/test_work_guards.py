"""Wall-clock-free guards on per-packet and idle work.

These count calls, not seconds: a packet hop may only do per-packet work
(no copy unless the rule rewrites, no action-list interpretation on a cache
hit) and an idle network may not execute kernel steps at all.  A refactor that
quietly brings the copy or the poll back fails here on any machine.

The armed path has its own guards: a traced session executes exactly the
kernel steps of its bare twin, a Perfetto shard enters no Python frame per
event or per rule span, and none of that may leak onto the bare path.  A cell's
set-up has one: migration path search draws no path past the one it keeps.

The kernel runs plain callbacks only: no generator function of the package
is stepped inside ``Simulator.run``, whatever the technique.  The packet path
has five more: dispatching a scheduled callback enters no frame but the
callback's, an idle probe tick and a plain-output switch hop enter a fixed
number of Python frames, the hop is one kernel step, a generated packet is
sent without stepping a process, and a delivered packet leaves nothing behind
for the cyclic garbage collector.

So does the control path: a FlowMod reaches a switch's tables through a
bounded number of frames, none of them event, process or generator plumbing;
a finished session leaves (next to) nothing for the collector either; and a
probe is validated once, however often it is re-injected.

Two sessions pin their kernel structure, counted by an observer passed in as
``spec.run(observer=...)``: which callbacks the rule-install agent runs, and
that a migration's hop is the link's heap entry and its source ``_emit``.

General probing asks RUM's mirror table, not every rule in it: the table
entries a generated probe examines do not grow with the table, the mirror
is looked up only by probe generation, and RUM keeps no xid of a probe it
injected (a PacketOut gets no reply that would release it), nor of a
sequential probe-rule update whose probe came back (an applied FlowMod gets
none either).
"""

import dataclasses
import gc
import inspect
import sys
from collections import Counter
from pathlib import Path

import pytest

import repro
import repro.core.techniques.general as general_mod
import repro.openflow.match as match_mod
import repro.scenarios.migration as migration_mod
import repro.switches.dataplane as dataplane_mod
from repro.controller.routing import install_path_rules, path_flowmods
from repro.core.rum import RumLayer
from repro.core.techniques.registry import available_techniques
from repro.experiments.common import (
    RuleInstallParams,
    rule_install_session,
    run_rule_install,
)
from repro.net.host import Host
from repro.net.link import Link
from repro.net.monitor import DeliveryMonitor
from repro.net.network import Network
from repro.net.topology import linear_topology, triangle_topology
from repro.net.traffic import TrafficGenerator, flows_between
from repro.obs.events import LIFECYCLE_PHASES, PHASE_MSG_SENT, TraceEvent, TraceLog
from repro.obs.export import write_chrome_trace
from repro.obs.tracer import Tracer
from repro.openflow import FlowMod, Match, OutputAction
from repro.openflow.connection import Connection, ConnectionEndpoint
from repro.openflow.constants import FLOOD_PORT
from repro.openflow.flowtable import FlowEntry, FlowTable
from repro.openflow.messages import PacketOut
from repro.packet.packet import Packet, make_ip_packet
from repro.scenarios import ScenarioParams, run_scenario, scenario_session
from repro.scenarios.generators import build_topology
from repro.scenarios.migration import endpoint_hosts, migration_paths
from repro.session.stack import build_control_stack
from repro.sim import Simulator
from repro.switches import HardwareSwitch, SoftwareSwitch, Switch
from repro.switches.controlplane import ControlPlane
from repro.switches.dataplane import DataPlane


def _counted(monkeypatch, owner, name, counts, observe=None):
    """Replace ``owner.name`` by a wrapper counting calls (and ``observe``-ing them)."""
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        counts[name] += 1
        result = original(*args, **kwargs)
        if observe is not None:
            observe(args, result)
        return result

    monkeypatch.setattr(owner, name, wrapper)


@pytest.fixture
def counts(monkeypatch):
    counts = Counter()

    def saw_transmit(args, _result):
        switch, _packet, port, in_port = args
        if port == FLOOD_PORT:
            counts["flood_copies"] += sum(
                1 for port_no in switch.port_numbers if port_no != in_port)

    def saw_lookup(_args, entry):
        if entry is not None:
            counts["lookups_that_matched"] += 1

    original_process = DataPlane.process_packet

    def process_packet(self, packet, in_port):
        cached = len(self._lookup_cache)
        result = original_process(self, packet, in_port)
        counts["cache_misses" if len(self._lookup_cache) > cached else "cache_hits"] += 1
        if result.packet is not packet:
            counts["rewriting_hits"] += 1
        return result

    monkeypatch.setattr(DataPlane, "process_packet", process_packet)
    _counted(monkeypatch, Packet, "copy", counts)
    _counted(monkeypatch, DataPlane, "_compile_plan", counts)
    _counted(monkeypatch, FlowTable, "lookup_values", counts, saw_lookup)
    _counted(monkeypatch, dataplane_mod, "compile_actions", counts)
    _counted(monkeypatch, ControlPlane, "send_packet_in", counts)
    _counted(monkeypatch, Switch, "inject_packet", counts)
    _counted(monkeypatch, Switch, "_transmit", counts, saw_transmit)
    return counts


def test_a_migration_cell_does_only_per_packet_work(counts):
    # Sequential probing: its versioned probe rule rewrites, so the cell has
    # thousands of plain hits plus probes that are injected (PacketOut),
    # rewritten and punted to the controller (PacketIn).
    record = run_scenario("path-migration", "sequential",
                          ScenarioParams(topology="fat-tree", flow_count=4,
                                         rate_pps=200.0, max_update_duration=5.0))
    assert record.completed
    assert counts["cache_hits"] > 20 * counts["cache_misses"] > 0
    assert min(counts["rewriting_hits"], counts["send_packet_in"],
               counts["inject_packet"]) > 0
    # One compilation per miss, and a miss is the only thing that reaches the
    # table or interprets an action list.
    assert counts["_compile_plan"] == counts["lookup_values"] == counts["cache_misses"]
    assert counts["compile_actions"] == counts["lookups_that_matched"]
    # Copies: one per rewriting hit, PacketOut, PacketIn capture and flooded
    # port, and one per injected probe (a stamped copy of its template).
    assert record.rum_probes_injected > 0
    assert counts["copy"] <= (counts["rewriting_hits"] + counts["inject_packet"]
                              + counts["send_packet_in"] + counts["flood_copies"]
                              + record.rum_probes_injected)
    assert counts["copy"] < counts["cache_hits"] / 10


def test_a_plain_output_rule_forwards_the_same_object_without_copying(counts):
    sim = Simulator()
    switch = SoftwareSwitch(sim, "S")
    sent = []
    switch.attach_port(1, lambda packet: None)
    switch.attach_port(2, sent.append)
    switch.install_rule_directly(FlowMod(Match(ip_dst="10.0.0.2"), [OutputAction(2)]))
    packets = [make_ip_packet("10.0.0.1", "10.0.0.2", sequence=index)
               for index in range(50)]
    for packet in packets:  # what a link would do with a packet arriving now
        sim.schedule_callback(switch.ingress_latency, switch.receive_packet, packet, 1, sim.now)
    sim.run()
    assert all(out is packet for out, packet in zip(sent, packets))
    assert len(sent) == 50
    assert counts["copy"] == 0
    assert counts["compile_actions"] == counts["cache_misses"] == 1


def test_an_idle_second_on_a_hardware_fat_tree_executes_no_kernel_steps():
    sim = Simulator()
    network = Network(sim, build_topology("fat-tree", hardware_fraction=1.0))
    assert all(switch.profile.name == "hp5406zl" for switch in network.switches.values())
    network.start()
    sim.run()  # the start-up callbacks; returns because nothing polls
    assert sim.pending_count == 0
    settled = sim.steps_executed
    sim.run(until=sim.now + 1.0)
    assert sim.steps_executed - settled == 0


# -- the armed path: no kernel step of its own, linear in events ----------------------

def _python_frames(function, entered=None):
    """Python-level frames ``function`` enters (work, not wall time); each
    one's code object is also handed to ``entered`` when given."""
    frames = 0

    def count(frame, event, _arg):
        nonlocal frames
        if event == "call":
            frames += 1
            if entered is not None:
                entered(frame.f_code)

    sys.setprofile(count)
    try:
        function()
    finally:
        sys.setprofile(None)
    return frames


def test_fat_tree_path_search_stops_at_the_first_usable_path(monkeypatch):
    drawn = Counter()
    search = migration_mod.shortest_simple_paths

    def counted(*args, **kwargs):
        for path in search(*args, **kwargs):
            drawn["paths"] += 1
            yield path

    monkeypatch.setattr(migration_mod, "shortest_simple_paths", counted)
    network = Network(Simulator(), build_topology("fat-tree", scale=2))
    old_path, new_path = migration_paths(network, *endpoint_hosts(network))
    assert len(old_path) == len(new_path) == 7
    # The old path and the first one adding a switch; a full list of 64
    # simple paths was drawn first, and thrown away.
    assert drawn["paths"] == 2


def test_a_shard_enters_python_frames_per_template_not_per_event(tmp_path):
    # A channel send carries no xid here, so both instant shapes are written.
    log = TraceLog(technique="general", kind="scenario", seed=1, events=[
        TraceEvent(xid * 0.001 + step * 0.0001, phase, f"S{xid % 5}",
                   None if phase == PHASE_MSG_SENT else xid, "probe")
        for xid in range(1, 301) for step, phase in enumerate(LIFECYCLE_PHASES)])
    tracks = {event.switch for event in log.events}
    templates = {(event.phase, event.switch, event.detail, event.xid is None)
                 for event in log.events} | tracks  # a rule-span template per switch
    frames = _python_frames(lambda: write_chrome_trace(log, tmp_path / "s.json"))
    # Frames name a track or build a template (a handful each, escaping its
    # strings once); an event and a rule span are one ``%`` each.  A helper
    # called per event would add 2 100 frames here, one per rule span 300.
    assert frames <= 4 * (len(tracks) + len(templates))
    assert (tmp_path / "s.json").stat().st_size > 100 * len(log.events)


def test_a_bare_session_builds_no_tracer_and_adds_no_per_packet_calls(monkeypatch):
    built = Counter()
    _counted(monkeypatch, Tracer, "__init__", built)
    record = run_scenario("path-migration", "general",
                          ScenarioParams(flow_count=2, rate_pps=100.0))
    assert record.completed and record.trace is None
    assert built["__init__"] == 0
    # The monitor's per-packet recorders are one frame each.
    monitor = DeliveryMonitor()
    monitor.record_delivery("f", 0.0, 0.1, 0, ("H1", "S1", "H2"))  # the flow's columns exist
    assert _python_frames(lambda: monitor.record_sent("f")) == 2
    assert _python_frames(lambda: monitor.record_delivery(
        "f", 0.1, 0.2, 1, ("H1", "S1", "H2"))) == 2


@pytest.mark.parametrize("scenario, technique, faults, steps", [
    ("rolling-upgrade", "barrier", None, 1213),
    ("fault-sweep", "general", None, 515),
    ("path-migration", "timeout", "delay-spike(probability=1.0,spike=0.3)@L1", 581),
], ids=["rolling-upgrade", "fault-sweep", "path-migration-delay-spike"])
def test_a_traced_session_executes_exactly_the_kernel_steps_of_its_bare_twin(
        monkeypatch, scenario, technique, faults, steps):
    # The three cells whose traces test_obs pins.  A tracer only appends
    # events: a traced run that schedules anything of its own (a sampler
    # tick, a flush) shows up here as extra steps.
    sims = []
    init = Simulator.__init__

    def keep(self, *args, **kwargs):
        init(self, *args, **kwargs)
        sims.append(self)

    monkeypatch.setattr(Simulator, "__init__", keep)
    extra = {"faults": faults} if faults else {}
    digests = [run_scenario(scenario, technique, ScenarioParams(
        flow_count=4, rate_pps=25.0, seed=1, trace=trace, **extra)).digest()
        for trace in (False, True)]
    (bare, traced) = sims
    assert bare.tracer is None and traced.tracer is not None
    assert bare.steps_executed == traced.steps_executed == steps
    assert digests[0] == digests[1]


# -- the packet path: fixed frames per sleep and per hop, nothing left for the GC ------

@pytest.mark.parametrize("count", [1000, 2000])
def test_dispatching_a_callback_is_one_step_and_no_frame_but_its_own(count):
    sim = Simulator()
    fired = []
    for index in range(count):
        sim.schedule_callback(index * 1e-6, lambda: fired.append(None))
    # The run loop itself, then one frame per callback: no per-event method
    # (step, a heap wrapper, an observer when none is installed) in between.
    assert _python_frames(sim.run) - 1 == count
    assert sim.steps_executed == len(fired) == count


@pytest.mark.parametrize("technique", available_techniques())
def test_the_kernel_steps_no_generator_function_of_the_package(technique):
    run_code, package = Simulator.run.__code__, str(Path(repro.__file__).parent)
    depth, stepped = 0, set()

    def watch(frame, event, _arg):
        nonlocal depth
        code = frame.f_code
        if code is run_code:
            depth += {"call": 1, "return": -1}.get(event, 0)
        elif (depth and event == "call" and code.co_flags & inspect.CO_GENERATOR
              and code.co_name != "<genexpr>" and code.co_filename.startswith(package)):
            stepped.add(f"{Path(code.co_filename).stem}.{code.co_name}")

    sys.setprofile(watch)
    try:
        record = run_scenario("path-migration", technique, ScenarioParams(flow_count=2))
    finally:
        sys.setprofile(None)
    assert record.completed
    # A generator stepped by the kernel is a process (a probe timer once was
    # one); a comprehension's generator is an expression, not a process.
    assert stepped == set()


def _idle_probe_ticks(technique, ticks):
    """Frames entered by a started ``technique`` stack on the triangle with
    nothing pending, over about ``ticks`` probe intervals, and the ticks run."""
    sim = Simulator()
    network = Network(sim, triangle_topology(), seed=3)
    stack = build_control_stack(sim, network, technique)
    stack.prepare()
    network.start()
    stack.start()
    sim.run(until=0.05)  # deployment rules are in; only the probe timer is left
    horizon = sim.now + ticks * stack.rum.config.probe_interval
    codes = []
    gc.disable()  # a collection would run whatever gc.callbacks hold
    try:
        frames = _python_frames(lambda: sim.run(until=horizon), codes.append)
    finally:
        gc.enable()
    return frames, sum(code.co_name == "_probe_tick" for code in codes)


@pytest.mark.parametrize("technique, body", [("general", 8), ("sequential", 0)])
def test_an_idle_probe_tick_is_its_own_frame_and_a_reschedule(technique, body):
    short, short_ticks = _idle_probe_ticks(technique, 10)
    long, long_ticks = _idle_probe_ticks(technique, 110)
    assert long_ticks - short_ticks >= 99
    # _probe_tick -> (the body) -> schedule_callback.  ``general``'s body on
    # the triangle is a switch list (two frames) and a pending-count per
    # switch (two each).  A tick that stepped a generator paid three more:
    # Process._wake, _step and _wait_on.
    assert (long - short) / (long_ticks - short_ticks) == body + 2


def _line_with_traffic(switch_count, flow_count=1, rate_pps=100.0):
    """H1 - S1 .. Sn - H2 with pre-installed plain-output rules and started flows."""
    sim = Simulator()
    network = Network(sim, linear_topology(switch_count), seed=2)
    network.start()
    flows = flows_between(network.host("H1"), network.host("H2"), flow_count,
                          rate_pps=rate_pps)
    path = ["H1"] + [f"S{index + 1}" for index in range(switch_count)] + ["H2"]
    for flow in flows:
        install_path_rules(network, path_flowmods(network, flow, path))
    generator = TrafficGenerator(sim, flows)
    generator.start()
    return sim, network, generator


def test_a_plain_output_hop_is_five_boundary_frames_and_one_kernel_step():
    def work_and_deliveries(switch_count):
        # 10 ms between packets, ~0.5 ms end to end: every packet travels
        # alone, so each link flush carries exactly one.
        sim, network, generator = _line_with_traffic(switch_count)
        source, sink = network.host("H1"), network.host("H2")
        sim.run(until=0.1)  # control planes started, forwarding plans cached
        while sink.packets_received != source.packets_sent:
            sim.step()
        generator.stop_all(0.9)  # ... and nothing is in flight at the end either
        delivered, steps = sink.packets_received, sim.steps_executed
        frames = _python_frames(lambda: sim.run(until=1.0))
        assert sink.packets_received == source.packets_sent
        return frames, sim.steps_executed - steps, sink.packets_received - delivered

    short, short_steps, delivered = work_and_deliveries(3)
    longer, longer_steps, delivered_longer = work_and_deliveries(4)
    assert delivered == delivered_longer >= 79
    # _flush_train -> receive_packet -> _forward -> process_packet ->
    # transmit_from: layer boundaries only (no result constructor, counter
    # method, size property, closure or scheduling call: the link pushes its
    # own heap entry) ...
    assert (longer - short) / delivered == 5
    # ... under one heap entry: the link's, due when the switch's ingress
    # delay is over.  An arrival event that only waits is a second one.
    assert (longer_steps - short_steps) / delivered == 1


def test_a_generated_packet_reaches_its_uplink_through_no_process_plumbing():
    sim, network, _generator = _line_with_traffic(1, flow_count=3)
    sim.run(until=0.1)
    source = network.host("H1")
    generated = source.packets_sent
    codes = []
    _python_frames(lambda: sim.run(until=0.5), codes.append)
    assert source.packets_sent - generated == 120  # 3 flows, 100 pps, 0.4 s
    # _emit -> from_values, send -> record_sent, transmit_from: no Process, no
    # Event, no generator being stepped, and no scheduling call: the source
    # and the link push their own heap entries.
    names = {code.co_name for code in codes}
    assert not [code.co_name for code in codes
                if code.co_filename.endswith("sim/events.py")
                or code.co_flags & inspect.CO_GENERATOR]
    assert {"_emit", "send", "transmit_from"} <= names
    assert not names & {"schedule_callback", "schedule_at"}


def test_a_delivered_packet_leaves_nothing_for_the_garbage_collector():
    sim, network, _generator = _line_with_traffic(3, flow_count=4, rate_pps=250.0)
    sink = network.host("H2")
    sim.run(until=0.5)  # caches, interned paths and per-flow columns exist
    gc.collect()
    gc.disable()
    try:
        tracked, received = len(gc.get_objects()), sink.packets_received
        sim.run(until=1.5)
        grown = len(gc.get_objects()) - tracked
    finally:
        gc.enable()
    delivered = sink.packets_received - received
    assert delivered >= 1000 == network.monitor.total_sent() - 500
    # A record, its path tuple and a sent-time tuple per packet were ~3.
    assert grown / delivered < 0.1


def test_the_hop_is_still_reached_through_class_attributes(monkeypatch):
    # What the benchmark's span pass (and any profiler) wraps: none of these
    # may be pre-bound past its class attribute.
    counts = Counter()
    for owner, name in ((DataPlane, "process_packet"), (Link, "transmit_from"),
                        (Link, "_flush_train"), (Switch, "receive_packet"),
                        (Switch, "_forward"), (Host, "send"),
                        (Host, "receive_packet")):
        _counted(monkeypatch, owner, name, counts)
    sim, network, _generator = _line_with_traffic(3)
    sim.run(until=0.2)
    sent = network.host("H1").packets_sent
    assert sent == counts["send"] >= 19
    hops = sum(switch.packets_received for switch in network.switches.values())
    assert hops == counts["_forward"] == counts["process_packet"] >= 3 * (sent - 1)
    # Every packet sent or forwarded rode a link: one transmit per hop.
    assert counts["transmit_from"] == sent + hops
    assert counts["receive_packet"] == hops + network.host("H2").packets_received
    assert counts["_flush_train"] >= counts["transmit_from"] - 4


# -- the control path: bounded frames per message, sessions that free themselves --------

def _frames_and_steps_per_flowmod(spaced):
    """Per-FlowMod cost on one hardware switch behind a ``Connection``, as
    the difference between a 200- and a 100-FlowMod run; the frames' code
    objects come back too."""
    def drive(count, codes):
        sim = Simulator()
        switch = HardwareSwitch(sim, "S")
        controller_side = Connection(sim, name="ctl-S")
        switch.connect_controller(controller_side.side_a)
        switch.start()
        sim.run()
        flowmods = [FlowMod(Match(tp_dst=index), [OutputAction(1)])
                    for index in range(count)]
        for index, flowmod in enumerate(flowmods):
            if spaced:  # half a second apart: agent and sync are idle again
                sim.schedule_at(1.0 + index * 0.5, controller_side.side_b.send, flowmod)
            else:       # one burst: all but the first wait in the inbox
                controller_side.side_b.send(flowmod)
        steps = sim.steps_executed
        frames = _python_frames(sim.run, codes.append)
        assert switch.controlplane.flowmods_processed == count == switch.rules_in_dataplane()
        return frames, sim.steps_executed - steps

    codes = []
    short_frames, short_steps = drive(100, [])
    long_frames, long_steps = drive(200, codes)
    return (long_frames - short_frames) / 100, (long_steps - short_steps) / 100, codes


@pytest.mark.parametrize("spaced, most_frames, steps",
                         [(False, 56, 4), (True, 68, 6)],
                         ids=["queued", "arriving-at-an-idle-agent"])
def test_a_flowmod_reaches_the_tables_through_a_bounded_number_of_frames(
        spaced, most_frames, steps):
    # Delivery, hand-off, processed, synced (+ the send and the sync's wake-up
    # tick when idle): the generator agent's heap entries, one for one.
    frames, kernel_steps, codes = _frames_and_steps_per_flowmod(spaced)
    assert kernel_steps == steps
    # The generator agent took 74 (95 when idle), 26 (36) of them Queue,
    # Event, Process and generator plumbing.
    assert frames <= most_frames
    plumbing = {code.co_name for code in codes
                if code.co_filename.endswith("sim/events.py")
                or (code.co_flags & inspect.CO_GENERATOR
                    and "/switches/" in code.co_filename)}
    assert plumbing == set()


def _unreachable_after(session):
    """Objects only a cyclic collection can free once ``session()`` returned
    (its record kept alive), and that record."""
    gc.collect()
    gc.disable()
    try:
        record = session()
        return gc.collect(), record
    finally:
        gc.enable()


@pytest.mark.parametrize("session, digest, completed", [
    (lambda: run_rule_install("barrier", RuleInstallParams.quick(rule_count=300)),
     "f83b83182b3fe169", True),
    (lambda: run_scenario("path-migration", "general",
                          ScenarioParams(topology="fat-tree", flow_count=16,
                                         rate_pps=200.0, max_update_duration=5.0)),
     "a1b76092966ba0b0", True),
    (lambda: run_scenario("rolling-upgrade", "general",
                          ScenarioParams(flow_count=16, rate_pps=25.0,
                                         trace=True, recovery="on")),
     "0934cbf32c797ccf", True),
    # Times out with every ack still pending (546 unreachable objects when
    # the controller's ack table kept the executor's callbacks).
    (lambda: run_scenario("fault-sweep", "barrier",
                          ScenarioParams(flow_count=16, rate_pps=25.0,
                                         max_update_duration=5.0,
                                         faults="ack-loss(probability=1.0)")),
     "eba05dcf1ce8575a", False),
], ids=["rule-install", "path-migration@fat-tree", "rolling-upgrade-traced-recovered",
        "timed-out-with-acks-pending"])
def test_a_finished_session_is_freed_by_reference_counting(session, digest, completed):
    session()  # imports, topology and colouring caches
    unreachable, record = _unreachable_after(session)
    # The session was one strongly connected graph (12 369 / 7 538 / 9 220
    # unreachable objects); now nothing is left for the cyclic collector.
    assert unreachable == 0
    assert record.completed == completed and record.digest() == digest
    if record.trace is not None:
        assert len(record.trace.events) > 1000 and record.recovery["resyncs_completed"] == 4


def test_a_failing_session_is_dismantled_too():
    def boom(_network, _flows):
        raise RuntimeError("boom")

    def session():
        spec = scenario_session("path-migration", "general",
                                ScenarioParams(topology="fat-tree", flow_count=4))
        with pytest.raises(RuntimeError, match="boom"):
            dataclasses.replace(spec, plan_builder=boom).run()

    session()
    unreachable, _none = _unreachable_after(session)
    assert unreachable == 0


def test_reinjecting_a_probe_validates_nothing(monkeypatch):
    sim = Simulator()
    network = Network(sim, triangle_topology(), seed=3)
    stack = build_control_stack(sim, network, "general")
    stack.prepare()
    network.start()
    stack.start()
    stack.controller.send_flowmod("S2", FlowMod(
        Match(ip_dst="10.0.0.2"), [OutputAction(network.port_between("S2", "S3"))]))
    sim.run(until=0.001)  # the FlowMod reached RUM: its probe exists
    technique = stack.rum.technique
    (info,) = technique._probe_info.values()
    built = Counter()
    _counted(monkeypatch, Packet, "__init__", built)
    _counted(monkeypatch, Packet, "copy", built)
    for _ in range(5):
        technique._inject_probe(info)
    assert technique.probes_injected == info.probes_sent == 5
    assert (built["__init__"], built["copy"]) == (0, 5)


def test_the_control_path_is_still_reached_through_class_attributes(monkeypatch):
    # What the benchmark's span pass wraps on the control path.
    counts = Counter()
    for owner, name in ((ControlPlane, "receive"), (ConnectionEndpoint, "send"),
                        (RumLayer, "handle_from_controller"),
                        (RumLayer, "handle_from_switch")):
        _counted(monkeypatch, owner, name, counts)
    sim = Simulator()
    network = Network(sim, triangle_topology(), seed=3)
    stack = build_control_stack(sim, network, "general")
    stack.prepare()
    network.start()
    stack.start()
    out_port = network.port_between("S2", "S3")
    for index in range(10):
        stack.controller.send_flowmod("S2", FlowMod(
            Match(ip_src="10.0.0.1", tp_dst=index), [OutputAction(out_port)]))
    sim.run(until=1.0)
    rum = stack.rum
    assert len(rum.confirmation_log) == 10  # ... by probes, so PacketIns came up
    # Every message RUM's endpoints took in reached its handler.
    assert counts["handle_from_controller"] == sum(
        upstream.side_a.received_count for upstream in rum._upstream.values()) == 10
    assert counts["handle_from_switch"] == sum(
        network.controller_endpoint(name).received_count
        for name in network.switches) >= 10
    agents = [network.control_connections[name].side_a for name in network.switches]
    assert counts["receive"] == sum(agent.received_count for agent in agents) > 20
    assert counts["send"] == sum(
        connection.total_messages
        for connection in (*network.control_connections.values(),
                           *rum._upstream.values())) > 50


# -- kernel structure, counted by an observer ------------------------------------------

class _CallbackCounter:
    """Kernel observer: dispatched callbacks by qualified name, and the heap
    churn (callbacks scheduled) from the first observed step on."""

    def __init__(self):
        self.calls = Counter()
        self.sim = None
        self.first_sequence = 0

    def __call__(self, sim, _time, callback, _args):
        if self.sim is None:
            self.sim, self.first_sequence = sim, sim.schedule_sequence
        self.calls[callback.__qualname__] += 1

    @property
    def events(self):
        return sum(self.calls.values())

    @property
    def scheduled(self):
        return self.sim.schedule_sequence - self.first_sequence


def test_a_rule_install_counts_what_the_generator_agent_did():
    counter = _CallbackCounter()
    record = rule_install_session(
        "barrier", RuleInstallParams.quick(rule_count=60, max_unconfirmed=20)
    ).run(observer=counter)
    assert record.digest() == "86b1ff3923f84538"
    # Pinned on the generator agent (``_main_loop`` fed by a ``Queue``):
    # the callback chain is the same heap entries under other names.
    assert counter.events == 605
    assert counter.scheduled == 581
    agent = {name.split(".", 1)[1]: calls for name, calls in counter.calls.items()
             if name.startswith("ControlPlane.")}
    assert agent["_finish_flowmod"] == agent["_sync_apply"] == 60
    assert agent["_begin"] == 60 + agent["_finish_barrier"] > 60
    assert sorted(agent) == ["_begin", "_finish_barrier", "_finish_flowmod",
                             "_next_message", "_sync_apply", "_sync_step"]


def test_a_migration_books_the_hop_to_the_link_and_the_source_to_emit(monkeypatch):
    sims = []
    init = Simulator.__init__

    def keep(self, *args, **kwargs):
        init(self, *args, **kwargs)
        sims.append(self)

    monkeypatch.setattr(Simulator, "__init__", keep)
    params = ScenarioParams(topology="fat-tree", flow_count=4, rate_pps=200.0,
                            warmup=0.1, grace=0.2, max_update_duration=5.0, seed=7)
    counter = _CallbackCounter()
    observed = scenario_session("path-migration", "general", params).run(observer=counter)
    bare = run_scenario("path-migration", "general", params)
    assert observed.digest() == bare.digest() == "9ba02c8b533abdbf"
    # A switch hop is the link's heap entry and nothing else: forwarding is
    # no kernel callback site, and the traffic source no generator.
    assert not [name for name in counter.calls
                if name.endswith(("Switch._forward", "Switch.receive_packet"))
                or "_flow_process" in name]
    sent = sum(stat.packets_sent for stat in observed.stats)
    assert counter.calls["TrafficGenerator._begin"] == 4
    # One entry per packet sent, and one per flow that finds it has stopped.
    assert counter.calls["TrafficGenerator._emit"] == sent + 4 == 324
    assert counter.calls["Link._flush_train"] > 5 * sent
    # Observed or bare, every kernel step is an observed event.
    observed_sim, bare_sim = sims
    assert counter.events == observed_sim.steps_executed == bare_sim.steps_executed


# -- general probing: the mirror's index, not a scan of it ----------------------------

def _probe_generation_work(patch, rule_count):
    """Counts of a general rule-install cell with ``rule_count`` rules: probes
    generated, table entries examined while generating them (a read of an
    entry's match, priority or actions, or a run of its compiled matcher),
    and ``FlowTable.lookup_values`` calls on RUM's mirrors and on switches,
    inside and outside probe generation."""
    work = Counter()
    generating = []

    def entry_field(slot):
        def read(entry):
            if generating:
                work["examined"] += 1
            return slot.__get__(entry)
        return property(read, slot.__set__)

    for name in ("match", "priority", "actions"):
        patch.setattr(FlowEntry, name, entry_field(vars(FlowEntry)[name]))
    compile_matcher = match_mod._compile_matcher

    def counting_compile(constraints):
        matcher = compile_matcher(constraints)

        def run(values):
            if generating:
                work["examined"] += 1
            return matcher(values)
        return run

    patch.setattr(match_mod, "_compile_matcher", counting_compile)
    lookup_values = FlowTable.lookup_values

    def lookup(table, *args):
        where = "mirror" if table.name.startswith("rum-mirror-") else "switch"
        work[f"{where} lookups {'inside' if generating else 'outside'}"] += 1
        return lookup_values(table, *args)

    patch.setattr(FlowTable, "lookup_values", lookup)
    generate = general_mod.generate_probe_headers

    def generate_probe(*args):
        work["probes"] += 1
        generating.append(True)
        try:
            return generate(*args)
        finally:
            generating.pop()

    patch.setattr(general_mod, "generate_probe_headers", generate_probe)
    record = run_rule_install("general", RuleInstallParams.paper_table1().scaled(
        rule_count=rule_count, seed=3))
    assert record.completed and work["probes"] == rule_count
    return work


def test_a_generated_probe_examines_as_many_entries_at_any_table_size(monkeypatch):
    counted = []
    for rule_count in (100, 800):
        with monkeypatch.context() as patch:
            counted.append(_probe_generation_work(patch, rule_count))
    small, large = counted
    per_probe = [work["examined"] / work["probes"] for work in (small, large)]
    # A scan of the mirror examines every entry: ~8x here, quadratic per cell.
    assert 0 < per_probe[1] <= 1.25 * per_probe[0], per_probe
    for work in (small, large):
        # Only probe generation looks the mirror up, and it looks up nothing else.
        assert work["mirror lookups outside"] == work["switch lookups inside"] == 0
        assert 0 < work["mirror lookups inside"] <= 3 * work["probes"]
        assert work["switch lookups outside"] > 0


@pytest.mark.parametrize("technique", ["general", "barrier", "sequential"])
def test_rum_keeps_no_xid_of_a_message_it_will_get_no_reply_for(monkeypatch, technique):
    layers, probes = [], set()
    init = RumLayer.__init__
    send_to_switch = RumLayer.send_to_switch

    def keep(self, *args, **kwargs):
        init(self, *args, **kwargs)
        layers.append(self)

    def send(self, switch_name, message):
        if isinstance(message, PacketOut):
            probes.add(message.xid)
        send_to_switch(self, switch_name, message)

    monkeypatch.setattr(RumLayer, "__init__", keep)
    monkeypatch.setattr(RumLayer, "send_to_switch", send)
    record = run_rule_install(technique, RuleInstallParams.paper_table1().scaled(
        rule_count=300, max_unconfirmed=50, seed=3))
    (rum,) = layers
    assert record.completed and len(probes) == record.rum_probes_injected
    if technique == "general":
        # A PacketOut is never answered: one xid per injection stayed behind.
        assert record.rum_probes_injected > 300
        assert not rum.rum_xids & probes
    elif technique == "barrier":
        # Every barrier was answered, and the technique claimed each reply.
        assert rum.technique.barriers_sent == 300
    else:
        # A probe-rule update is answered only on error: its returning probe
        # shows it applied, and releases its xid.
        assert rum.technique.probe_rule_updates_sent == 30
    assert not rum.rum_xids
