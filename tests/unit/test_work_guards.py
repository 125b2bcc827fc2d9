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
has more: dispatching a scheduled callback enters no frame but the
callback's, an idle probe tick and a plain-output switch hop enter a fixed
number of Python frames, the hop is one kernel step and (on CPython 3.11) a
pinned number of bytecodes that build no lookup key and no result, so is a
delivery, every packet of a flow carries the flow's one header tuple, a
generated packet is sent without stepping a process, and a delivered packet
leaves nothing behind for the cyclic garbage collector.

So does the control path: a FlowMod reaches a switch's tables through a
bounded number of frames, none of them event, process or generator plumbing;
a finished session leaves (next to) nothing for the collector either; a
probe is validated once, however often it is injected, and copied once per
injection (plus once per PacketIn that captures it); and a probe's way from
its injection to the probed switch's drop is a fixed number of frames (and,
on CPython 3.11, of bytecodes), on a lookup-cache hit and on a miss.  A
rule's forwarding plan is compiled once per actions binding, however often
applied FlowMods clear the lookup cache.

Two sessions pin their kernel structure, counted by an observer passed in as
``spec.run(observer=...)``: which callbacks the rule-install agent runs, and
that a migration's hop is the link's heap entry and its source ``_emit``.

General probing asks RUM's mirror table, not every rule in it: the table
entries a generated probe examines do not grow with the table, the mirror
is looked up only by probe generation, and RUM keeps no xid of a probe it
injected (a PacketOut gets no reply that would release it), nor of a
sequential probe-rule update whose probe came back (an applied FlowMod gets
none either).

A cumulative acknowledgment costs what it confirms: a barrier reply reads
the pending records it confirms and one more, a barrier FlowMod runs as
many bytecodes at a window of 20 as at 100, and sequential probing's
stalled-batch timer reads as many pending records at either window.

A cache hit is re-emitted as it was stored: replaying a stored grid, and
verifying the store, call no JSON encoder in the run store or the campaign
runner, and each hit decodes one store object and one results line.
Reading a store directory as a baseline decodes each object once, and a
cell's line only from the object its index entry names.
"""

import gc
import inspect
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import repro
import repro.core.techniques.general as general_mod
from repro.core.techniques.sequential import SequentialProbingTechnique
import repro.openflow.match as match_mod
import repro.scenarios.migration as migration_mod
import repro.campaign.runner as runner_mod
import repro.store.store as store_mod
import repro.switches.dataplane as dataplane_mod
from repro.campaign import CampaignRunner, CampaignSpec
from repro.controller.routing import install_path_rules, path_flowmods
from repro.core.pending import PendingRule, PendingRuleTracker
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
from repro.openflow.messages import BarrierRequest, PacketOut
from repro.packet.packet import Packet, make_ip_packet
from repro.scenarios import ScenarioParams, run_scenario, scenario_session
from repro.scenarios.generators import build_topology
from repro.scenarios.migration import endpoint_hosts, migration_paths
from repro.session.stack import build_control_stack
from repro.sim import Simulator
from repro.store import RunStore
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

    original_receive = Switch.receive_packet

    def cached_plans(switch):
        return sum(map(len, switch.dataplane.plan_cache.values()))

    def receive_packet(switch, packet, in_port, arrived_at):
        # Every hop passes here: one the switch classifies (its port was lit
        # at the arrival, so the packet's trace moved on, and it is up) hits
        # its plan cache or adds the plan it missed.
        trace, crashed, cached = packet.trace, switch.crashed, cached_plans(switch)
        original_receive(switch, packet, in_port, arrived_at)
        if packet.trace is not trace and not crashed:
            counts["cache_misses" if cached_plans(switch) > cached else "cache_hits"] += 1

    def saw_copy(args, _result):
        # A copy the hop itself makes (on a hit in receive_packet, on a miss
        # in process_packet) carries a rewrite.
        if sys._getframe(2).f_code.co_name in ("receive_packet", "process_packet"):
            counts["rewriting_hits"] += 1

    bindings = {}  # id -> actions list, kept alive so that no id is reused

    def saw_compile(args, _result):
        bindings[id(args[0])] = args[0]
        counts["actions_bindings"] = len(bindings)

    monkeypatch.setattr(Switch, "receive_packet", receive_packet)
    _counted(monkeypatch, Packet, "copy", counts, saw_copy)
    _counted(monkeypatch, DataPlane, "_compile_plan", counts)
    _counted(monkeypatch, FlowTable, "lookup_values", counts, saw_lookup)
    _counted(monkeypatch, dataplane_mod, "compile_actions", counts, saw_compile)
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
    # A miss is the only thing that reaches the table, and it interprets an
    # action list only the first time it matches the entry holding it: every
    # applied rule clears the cache, not the entries' plans.
    assert counts["_compile_plan"] == counts["lookup_values"] == counts["cache_misses"]
    assert (counts["actions_bindings"] == counts["compile_actions"]
            < counts["lookups_that_matched"])
    # Copies: one per rewriting hit, PacketOut, PacketIn capture and flooded
    # port; an injected probe is copied by the switch executing its PacketOut.
    assert record.rum_probes_injected > 0
    assert counts["copy"] == (counts["rewriting_hits"] + counts["inject_packet"]
                              + counts["send_packet_in"] + counts["flood_copies"])
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


def _frames(function):
    """``"frames"`` ``function`` enters, and ``"calls <name>"`` per function."""
    names = []
    counted = Counter(frames=_python_frames(function, names.append))
    counted.update(f"calls {code.co_name}" for code in names)
    return counted


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


def _started_on_the_triangle(technique):
    sim = Simulator()
    network = Network(sim, triangle_topology(), seed=3)
    stack = build_control_stack(sim, network, technique)
    stack.prepare()
    network.start()
    stack.start()
    return sim, network, stack


def _idle_probe_ticks(technique, ticks):
    """Frames entered by a started ``technique`` stack on the triangle with
    nothing pending, over about ``ticks`` probe intervals, and the ticks run."""
    sim, _network, stack = _started_on_the_triangle(technique)
    sim.run(until=0.05)  # deployment rules are in; only the probe timer is left
    horizon = sim.now + ticks * stack.rum.technique.probe_interval
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


def _sent(monitor):
    """Flow packets the hosts sent so far."""
    return sum(map(monitor.sent_count, monitor.flows()))


def _delivered(monitor):
    """Flow packets that reached their sink so far."""
    return sum(map(monitor.received_count, monitor.flows()))


def _per_hop(measure):
    """What ``measure(run)`` counts (a ``Counter``) over the steady state of
    a 4-switch line less a 3-switch line, kernel steps included, each per
    delivered packet: the cost of one plain-output switch hop."""
    def work(switch_count):
        # 10 ms between packets, ~0.5 ms end to end: every packet travels
        # alone, so each link flush carries exactly one.
        sim, network, generator = _line_with_traffic(switch_count)
        monitor = network.monitor
        sim.run(until=0.1)  # control planes started, forwarding plans cached
        while monitor.total_dropped():
            sim.step()
        generator.stop_all(0.9)  # ... and nothing is in flight at the end either
        delivered, steps = _delivered(monitor), sim.steps_executed
        counted = measure(lambda: sim.run(until=1.0))
        counted["steps"] = sim.steps_executed - steps
        assert monitor.total_dropped() == 0
        return counted, _delivered(monitor) - delivered

    short, delivered = work(3)
    longer, delivered_longer = work(4)
    assert delivered == delivered_longer >= 79
    return {name: (longer[name] - short[name]) / delivered for name in longer | short}


def _per_delivery(measure):
    """What ``measure(run)`` counts (a ``Counter``) over the steady state of
    a 3-switch line, per delivered packet."""
    sim, network, generator = _line_with_traffic(3)
    monitor = network.monitor
    sim.run(until=0.1)  # caches, interned paths and the flow's columns exist
    while monitor.total_dropped():
        sim.step()
    generator.stop_all(0.9)
    delivered = _delivered(monitor)
    counted = measure(lambda: sim.run(until=1.0))
    delivered = _delivered(monitor) - delivered
    assert delivered >= 79
    return {name: value / delivered for name, value in counted.items()}


def test_a_plain_output_hop_is_three_boundary_frames_and_one_kernel_step():
    hop = _per_hop(lambda run: Counter(frames=_python_frames(run)))
    # _flush_train -> receive_packet -> transmit_from: layer boundaries only
    # (the switch applies its cached plan itself, and there is no result
    # constructor, counter method, size property, closure or scheduling
    # call: the link pushes its own heap entry) ...
    assert hop["frames"] == 3
    # ... under one heap entry: the link's, due when the switch's ingress
    # delay is over.  An arrival event that only waits is a second one.
    assert hop["steps"] == 1


def _bytecodes(function):
    """Bytecodes ``function`` executes (``"opcodes"``; ``"opcodes
    <qualified name>"`` per function, the bare name before Python 3.11;
    ``"calls <name>"`` its frames), and the memory blocks allocated while
    each function's own bytecode ran
    (``"blocks <name>"``: ``sys.getallocatedblocks`` read between traced
    opcodes, a block counting for the function whose event came last)."""
    counts, last, owner = Counter(), [sys.getallocatedblocks()], [None]

    def local(frame, event, _arg):
        grown = sys.getallocatedblocks() - last[0]
        if grown > 0:
            counts[owner[0]] += grown
        if event == "opcode":
            counts["opcodes"] += 1
            code = frame.f_code  # co_qualname is new in 3.11
            counts["opcodes " + getattr(code, "co_qualname", code.co_name)] += 1
        elif event == "call":
            counts["calls " + frame.f_code.co_name] += 1
        owner[0] = "blocks " + frame.f_code.co_name
        del grown  # nothing of this callback outlives the next reading
        last[0] = sys.getallocatedblocks()
        return local

    def call(frame, event, arg):
        frame.f_trace_opcodes = True
        return local(frame, event, arg)

    gc.disable()  # a collection would run whatever gc.callbacks hold
    sys.settrace(call)
    try:
        function()
    finally:
        sys.settrace(None)
        gc.enable()
    return counts


#: Bytecodes and allocations are the interpreter's own: pinned for the one
#: that runs the reference benchmark.
_CPYTHON_311 = pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
    reason="bytecode and allocation counts are pinned for CPython 3.11")


@pytest.fixture(scope="module")
def traced_hop():
    # Traced in a fresh interpreter (this file run as a script): reading
    # sys.getallocatedblocks() walks every arena, so inside a long suite each
    # traced opcode costs more, and the heap earlier tests left behind would
    # be part of the reading.
    path = [str(Path(__file__).resolve().parents[2] / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    result = subprocess.run([sys.executable, __file__], capture_output=True, text=True,
                            env=env, timeout=600)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


@_CPYTHON_311
def test_a_plain_output_hop_is_a_pinned_number_of_bytecodes(traced_hop):
    # The three frames' bodies and one run-loop step (which pops first, peeks
    # at no ``heap[0]`` and sets the clock with no jump over its backwards
    # check).  Entering _forward and process_packet on a hit, and building
    # and unpacking a result there, was 38 more; a per-hop key 16, the peek
    # 6, the jump 1, the rule's packet and byte counters and the switch's
    # packet counter 22, the link's two bodies 18 (a ``flushing`` flag, the
    # sender found by two identity tests) and the port map's ``.get`` and a
    # separate miss return 5 (``python tests/unit/test_work_guards.py``
    # prints the count per function).
    assert (traced_hop["opcodes"], traced_hop["steps"]) == (218, 1)


@_CPYTHON_311
def test_a_delivery_is_a_pinned_number_of_bytecodes(traced_hop):
    # Host.receive_packet and what it calls, the monitor's record_delivery:
    # the host hands over the path tuple its packet's trace node already
    # is.  Building a tuple from a trace list was 3 more, and looking the
    # flow's columns up with ``.get`` after testing for no flow 4 (95).
    assert traced_hop["delivery opcodes"] == 88


@_CPYTHON_311
def test_a_steady_state_hop_builds_no_lookup_key_and_no_result(traced_hop):
    # The plan cache is looked up with the packet's own header tuple and a
    # hit is applied in receive_packet's own frame: process_packet, which
    # builds a ForwardingResult per miss, is not called.  The switch's frame
    # allocates two blocks: the frame the tracer builds for transmit_from,
    # and the one more that handing the packet to its link took under
    # _forward too.  The result was a block more, the byte counter's next
    # int another, and copying the header list for a key a third (its tuple
    # came from the interpreter's free list).
    assert traced_hop.get("calls process_packet", 0) == 0
    assert round(traced_hop["blocks receive_packet"]) == 2


def test_every_packet_of_a_flow_carries_the_same_header_tuple(monkeypatch):
    seen = {}
    receive = Host.receive_packet

    def tapped(host, packet, *args):
        seen.setdefault(packet.flow_id, []).append(packet.header_values())
        return receive(host, packet, *args)

    monkeypatch.setattr(Host, "receive_packet", tapped)
    sim, _network, _generator = _line_with_traffic(3, flow_count=2)
    sim.run(until=0.5)
    assert sorted(seen) == ["flow-0000", "flow-0001"]
    first, second = seen.values()
    assert min(len(first), len(second)) >= 40
    # One immutable tuple per flow, from the source's template to the sink:
    # nothing on the way copies or rebuilds it.
    assert all(values is first[0] for values in first)
    assert all(values is second[0] for values in second)
    assert first[0] != second[0]


def test_a_generated_packet_reaches_its_uplink_through_no_process_plumbing():
    sim, network, _generator = _line_with_traffic(1, flow_count=3)
    sim.run(until=0.1)
    generated = _sent(network.monitor)
    codes = []
    _python_frames(lambda: sim.run(until=0.5), codes.append)
    assert _sent(network.monitor) - generated == 120  # 3 flows, 100 pps, 0.4 s
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
    sim.run(until=0.5)  # caches, interned paths and per-flow columns exist
    gc.collect()
    gc.disable()
    try:
        tracked, received = len(gc.get_objects()), _delivered(network.monitor)
        sim.run(until=1.5)
        grown = len(gc.get_objects()) - tracked
    finally:
        gc.enable()
    delivered = _delivered(network.monitor) - received
    assert delivered >= 1000 == _sent(network.monitor) - 500
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
    sent = _sent(network.monitor)
    assert sent == counts["send"] >= 19
    # Each packet that reached a (lit) switch port was forwarded, once: what
    # a host did not take in, a switch did, and every packet sent or
    # forwarded rode a link, one transmit per hop.
    hops = counts["receive_packet"] - _delivered(network.monitor)
    assert hops >= 3 * (sent - 1)
    assert counts["transmit_from"] == sent + hops
    # A packet without a cached plan got it through _forward and
    # process_packet: the flow's first, at each of the three switches.
    assert counts["_forward"] == counts["process_packet"] == 3
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
        assert len(switch.controlplane.control_apply_log) == count
        assert switch.dataplane.occupancy() == count
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
        spec.workload.build_plan = boom
        with pytest.raises(RuntimeError, match="boom"):
            spec.run()

    session()
    unreachable, _none = _unreachable_after(session)
    assert unreachable == 0


def test_a_probe_is_copied_once_per_injection_and_once_per_capture(monkeypatch):
    sim, network, stack = _started_on_the_triangle("general")
    stack.controller.send_flowmod("S2", FlowMod(
        Match(ip_dst="10.0.0.2"), [OutputAction(network.port_between("S2", "S3"))]))
    sim.run(until=0.001)  # the FlowMod reached RUM: its probe exists
    technique = stack.rum.technique
    (info,) = technique._probe_info.values()
    built = Counter()
    for owner, name in ((Packet, "__init__"), (Packet, "copy"),
                        (general_mod.GeneralProbingTechnique, "_inject_probe"),
                        (Switch, "_send_packet_in")):
        _counted(monkeypatch, owner, name, built)
    for _ in range(5):
        technique._inject_probe(info)
    sim.run(until=1.0)  # ... and the probe timer's own, until one is caught
    assert len(stack.rum.confirmation_log) == 1
    assert built["_inject_probe"] > 5 and built["_send_packet_in"] > 0
    # The template goes into the PacketOut as is, validated once: the
    # injecting switch copies it, and the catch switch copies what it punts.
    assert built["__init__"] == 0
    assert built["copy"] == built["_inject_probe"] + built["_send_packet_in"]


def _futile_probe(miss, measure):
    """What ``measure(run)`` counts (a ``Counter``) for one probe for a rule
    S2 has not got, so S2's data plane drops it: 4 probes less 1, injected
    into the last of four slots 20 ms apart (each travels alone).  With ``miss``, a FlowMod is applied
    to S2 half a millisecond before each of the four slots in both runs, so
    every probe misses the cleared lookup cache and the FlowMods cancel out."""
    def work(probes):
        sim, network, stack = _started_on_the_triangle("general")
        sim.run(until=0.05)  # deployment rules are in; only the probe timer is left
        technique = stack.rum.technique
        flowmod = FlowMod(Match(ip_dst="10.0.0.2"),
                          [OutputAction(network.port_between("S2", "S3"))])
        info = technique._build_probe("S2", PendingRule("S2", flowmod.xid, flowmod, 0.0, 1))
        switch = network.switch("S2")
        for index in range(4):
            if miss:
                sim.schedule_at(0.1 + 0.02 * index, switch.dataplane.apply_flowmod,
                                FlowMod(Match(ip_dst=f"10.0.9.{index}"), [OutputAction(1)]),
                                0.1 + 0.02 * index)
            if index >= 4 - probes:  # the last probe's plan stays cached
                sim.schedule_at(0.1005 + 0.02 * index, technique._inject_probe, info)
        gc.disable()  # a collection would run whatever gc.callbacks hold
        try:
            counted = measure(lambda: sim.run(until=0.5))
        finally:
            gc.enable()
        # S2 took in every probe (the measure saw its ``receive_packet``
        # frames; nothing else reaches a switch port here), the first and
        # every one after a FlowMod missing the plan cache (``_forward``),
        # and every plan its data plane looked them up to is a drop: no port,
        # no PacketIn (a tap here would be a frame).
        assert counted["calls receive_packet"] == probes
        assert counted["calls _forward"] == (probes if miss else 1)
        plans = [plan for cached in switch.dataplane.plan_cache.values()
                 for plan in cached.values()]
        assert plans and all(plan[2:] == ((), False) for plan in plans)
        return counted

    work(1)  # the first run grows the process's trace tree by the probe's path
    one, four = work(1), work(4)
    return {name: (four[name] - one[name]) / 3 for name in four | one}


def test_a_probe_to_the_probed_switchs_drop_is_a_fixed_number_of_frames():
    # _inject_probe (a PacketOut drawing its own xid) -> send_to_switch ->
    # the RUM channel (send, _schedule_delivery; _deliver a step later) ->
    # S1's agent (receive, the hand-off, _begin picking the PacketOut's
    # route, _finish_packet_out) -> inject_packet (compile_actions, copy)
    # -> the link -> S2's receive_packet (a cache hit on the drop, applied
    # in its own frame), three of them scheduling a heap entry.  Entering
    # _forward and process_packet on the hit was 2 more.
    assert _futile_probe(False, _frames)["frames"] == 18


def test_a_probe_that_misses_the_lookup_cache_is_a_fixed_number_of_frames():
    # The hit's frames, and the miss path's _forward, process_packet,
    # _compile_plan and lookup_values: as many as before the switch applied
    # cached plans itself.
    assert _futile_probe(True, _frames)["frames"] == 22


@_CPYTHON_311
def test_a_futile_probe_is_a_pinned_number_of_bytecodes(traced_hop):
    # Those frames' bodies (``__main__`` counts them) on a hit and on a miss.
    # A miss looks the plan cache up once, in receive_packet: a second
    # failed lookup in process_packet is 14 more (1 038, where a miss was
    # 1 032 while process_packet made the only lookup).  The channel
    # endpoints' message counters were 14 more, the switch's packet counter
    # 7, and the link's two bodies 18.
    assert (traced_hop["probe hit opcodes"], traced_hop["probe miss opcodes"]) == (876, 1024)


def test_the_control_path_is_still_reached_through_class_attributes(monkeypatch):
    # What the benchmark's span pass wraps on the control path.
    counts, delivered = Counter(), Counter()
    for owner, name in ((ControlPlane, "receive"), (ConnectionEndpoint, "send"),
                        (RumLayer, "handle_from_controller"),
                        (RumLayer, "handle_from_switch"),
                        (Connection, "_schedule_delivery")):
        _counted(monkeypatch, owner, name, counts)
    _counted(monkeypatch, ConnectionEndpoint, "_deliver", counts,
             lambda args, _result: delivered.update((args[0],)))
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
        delivered[upstream.side_a] for upstream in rum._upstream.values()) == 10
    assert counts["handle_from_switch"] == sum(
        delivered[network.controller_endpoint(name)] for name in network.switches) >= 10
    agents = [network.control_connections[name].side_a for name in network.switches]
    assert counts["receive"] == sum(delivered[agent] for agent in agents) > 20
    # ... and every send was scheduled for delivery once (no fault intercepts).
    assert counts["send"] == counts["_schedule_delivery"] > 50


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


# -- cumulative confirmations: what they confirm, not the window ----------------------

def _examined_per_flowmod(patch, window):
    """Pending records ``confirm_up_to_sequence`` reads (their ``sequence``)
    per FlowMod of a barrier rule-install cell, R = 300, window ``window``."""
    reads, confirming = Counter(), []

    def read(record):
        reads["examined"] += bool(confirming)
        return record.__dict__["sequence"]

    def write(record, value):
        record.__dict__["sequence"] = value

    patch.setattr(PendingRule, "sequence", property(read, write), raising=False)
    confirm = PendingRuleTracker.confirm_up_to_sequence

    def counted(tracker, *args, **kwargs):
        confirming.append(True)
        try:
            return confirm(tracker, *args, **kwargs)
        finally:
            confirming.pop()

    patch.setattr(PendingRuleTracker, "confirm_up_to_sequence", counted)
    record = run_rule_install("barrier", RuleInstallParams.quick(rule_count=300).scaled(
        max_unconfirmed=window, seed=3))
    assert record.completed
    return reads["examined"] / 300


def test_a_barrier_flowmods_cumulative_ack_costs_the_same_at_any_window(monkeypatch):
    examined = []
    for window in (20, 100):
        with monkeypatch.context() as patch:
            examined.append(_examined_per_flowmod(patch, window))
    # Each reply confirms its records and reads the one after the last: a
    # scan of the whole window read 19.4 per FlowMod at K = 20 and 83.5 at K = 100.
    assert examined[0] == examined[1] <= 2, examined


class _CountedWalk:
    """A ``values()`` view whose walks, either way, hand each record to ``count``."""

    def __init__(self, records, count):
        self.records, self.count = records, count

    def __len__(self):
        return len(self.records)

    def __iter__(self):
        return map(self.count, self.records)

    def __reversed__(self):
        return map(self.count, reversed(self.records))


class _CountingRecords(dict):
    """A tracker's ``{xid: record}`` that hands every record it gives out, by
    subscript or by a walk of its ``values()``, to ``count``."""

    def __init__(self, count):
        super().__init__()
        self.count = count

    def __getitem__(self, xid):
        return self.count(super().__getitem__(xid))

    def values(self):
        return _CountedWalk(super().values(), self.count)


def _stalled_batch_reads(patch, window):
    """Pending records sequential probing's stalled-batch timer reads, and
    its timers, in a rule-install cell at window ``window``: R = 295, so the
    last batch of 5 stalls (batches are 10) and a timer must cover it."""
    reads, covering = Counter(), []
    init = PendingRuleTracker.__init__

    def count(record):
        reads["examined"] += bool(covering)
        return record

    def counting(tracker, *args, **kwargs):
        init(tracker, *args, **kwargs)
        tracker._pending = _CountingRecords(count)

    cover = SequentialProbingTechnique._cover_stalled_batch

    def counted(technique, *args):
        reads["timers"] += 1
        covering.append(True)
        try:
            return cover(technique, *args)
        finally:
            covering.pop()

    patch.setattr(PendingRuleTracker, "__init__", counting)
    patch.setattr(SequentialProbingTechnique, "_cover_stalled_batch", counted)
    record = run_rule_install("sequential", RuleInstallParams.quick(rule_count=295).scaled(
        max_unconfirmed=window, seed=3))
    assert record.completed and reads["timers"] > 100
    return reads["examined"], reads["timers"]


def test_a_stalled_batch_timer_reads_as_many_records_at_any_window(monkeypatch):
    read = []
    for window in (20, 100):
        with monkeypatch.context() as patch:
            read.append(_stalled_batch_reads(patch, window))
    # A timer reads nothing unless its batch has grown since the last probe
    # rule, and then the newest pending sequence: the last record's (no
    # retransmits here), once, for the tail.  Copying the window to find it
    # read 3 760 records at K = 20 and 25 895 at K = 100.
    assert read[0] == read[1] == (1, 266), read


def _barrier_flowmod_opcodes(window):
    """Bytecodes of one barrier rule-install FlowMod at ``window``: the
    difference of a 200- and a 100-rule cell, per rule (counted alone: a
    block reading per opcode would make the cells take seconds)."""
    def cell(rule_count):
        spec = rule_install_session("barrier", RuleInstallParams.quick(
            rule_count=rule_count).scaled(max_unconfirmed=window, seed=3))
        opcodes = [0]

        def local(_frame, event, _arg):
            opcodes[0] += event == "opcode"
            return local

        def call(frame, _event, _arg):
            frame.f_trace_opcodes = True
            return local

        gc.disable()
        sys.settrace(call)
        try:
            spec.run()
        finally:
            sys.settrace(None)
            gc.enable()
        return opcodes[0]

    return (cell(200) - cell(100)) / 100


def test_a_barrier_flowmod_runs_as_many_bytecodes_at_any_window(traced_hop):
    # What the whole control path runs per FlowMod (``__main__`` counts it):
    # the full scan made it 4 160 at K = 20 and 5 200 at K = 100.
    assert traced_hop["barrier flowmod K=20 opcodes"] == traced_hop[
        "barrier flowmod K=100 opcodes"] > 0


@pytest.mark.parametrize("technique", ["general", "barrier", "sequential"])
def test_rum_keeps_no_xid_of_a_message_it_will_get_no_reply_for(monkeypatch, technique):
    layers, probes, barriers = [], set(), []
    init = RumLayer.__init__
    send_to_switch = RumLayer.send_to_switch

    def keep(self, *args, **kwargs):
        init(self, *args, **kwargs)
        layers.append(self)

    def send(self, switch_name, message):
        if isinstance(message, PacketOut):
            probes.add(message.xid)
        elif isinstance(message, BarrierRequest):
            barriers.append(message.xid)
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
        assert len(barriers) == 300
    else:
        # A probe-rule update is answered only on error: its returning probe
        # shows it applied, and releases its xid.
        assert rum.technique.probe_rule_updates_sent == 30
    assert not rum.rum_xids



class _CountingJson:
    """Stands in for a module's ``json``: counts encodes and decodes."""

    def __init__(self):
        self.counts = Counter()

    def __getattr__(self, name):
        original = getattr(json, name)
        if name not in ("dumps", "dump", "loads", "load"):
            return original

        def counted(*args, **kwargs):
            self.counts[name] += 1
            return original(*args, **kwargs)

        return counted


def test_a_cache_hit_encodes_no_json(tmp_path, monkeypatch):
    spec = CampaignSpec(scenarios=["path-migration"],
                        techniques=["barrier", "general", "sequential",
                                    "adaptive", "timeout"],
                        seeds=list(range(1, 13)))
    cells = spec.cells()
    assert len(cells) == 60
    RunStore(tmp_path / "store").put_summaries(
        json.dumps({"cell_id": cell.cell_id, "config": cell.config(),
                    "status": "ok", "digest": f"{index:016x}"})
        for index, cell in enumerate(cells))
    counting = _CountingJson()
    monkeypatch.setattr(store_mod, "json", counting)
    monkeypatch.setattr(runner_mod, "json", counting)
    store = RunStore(tmp_path / "store")
    replay = CampaignRunner(spec, tmp_path / "replay.jsonl", max_workers=1,
                            cache=store).run()
    assert (replay.ran, replay.cached) == (0, 60)
    # The index once, then one object and one line per hit.
    assert counting.counts == {"loads": 1 + 2 * 60}
    counting.counts.clear()
    assert store.verify() == []
    assert counting.counts == {"loads": 2 * 60}


def _summary_line(cell, digest):
    """A stored cell's results line: the index files it by its config."""
    return json.dumps({"cell_id": cell.cell_id, "config": cell.config(),
                       "status": "ok", "digest": digest})


def test_reading_a_store_directory_decodes_each_object_once(
        tmp_path, monkeypatch):
    cells = CampaignSpec(scenarios=["path-migration"],
                         techniques=["barrier", "general"],
                         seeds=[1, 2, 3, 4, 5]).cells()
    assert len(cells) == 10
    RunStore(tmp_path / "store").put_summaries(
        _summary_line(cell, f"{index:016x}")
        for index, cell in enumerate(cells))
    counting = _CountingJson()
    monkeypatch.setattr(store_mod, "json", counting)
    baseline = RunStore(tmp_path / "unused").read(str(tmp_path / "store"))
    assert sorted(baseline.cells) == sorted(cell.cell_id for cell in cells)
    # The index once, then one object and one line per cell.
    assert counting.counts == {"loads": 1 + 10 + 10}


@pytest.mark.parametrize("stale, fresh", [("f" * 16, "0" * 16),
                                          ("0" * 16, "f" * 16)],
                         ids=["stale-object-listed-last",
                              "stale-object-listed-first"])
def test_a_stale_line_in_an_older_object_is_never_served(
        tmp_path, monkeypatch, stale, fresh):
    # A cell stored under one outcome, then stored again under another: the
    # older object keeps its (still pinned) line, and the index moves on.
    moved, kept = CampaignSpec(scenarios=["path-migration"],
                               techniques=["general"], seeds=[1, 2]).cells()
    store = RunStore(tmp_path / "store")
    store.put_summaries([_summary_line(moved, stale),
                         _summary_line(kept, stale)])
    store.put_summaries([_summary_line(moved, fresh)])
    assert (store.load(stale)["summaries"][moved.cell_id]
            == _summary_line(moved, stale))
    assert store.cached_record(moved.cell_id)[1]["digest"] == fresh
    counting = _CountingJson()
    monkeypatch.setattr(store_mod, "json", counting)
    baseline = RunStore(tmp_path / "unused").read(str(store.root))
    assert {cell_id: line["digest"] for cell_id, line
            in baseline.cells.items()} == {moved.cell_id: fresh,
                                           kept.cell_id: stale}
    # The stale line is not even decoded: the index, two objects, two lines.
    assert counting.counts == {"loads": 1 + 2 + 2}


if __name__ == "__main__":
    # The hop's counts (what ``traced_hop`` reads; its bytecodes per function
    # also go to stderr as a table), a delivery's bytecodes, a futile
    # probe's frames and bytecodes on a lookup-cache hit and miss (what the
    # frame and bytecode pins above count), and a barrier FlowMod's
    # bytecodes at two windows.
    counts = _per_hop(_bytecodes)
    for name, opcodes in counts.items():
        if str(name).startswith("opcodes ") and opcodes:
            print(f"{opcodes:6.1f}  {name[len('opcodes '):]}", file=sys.stderr)
    print(f"{counts['opcodes']:6.1f}  plain hop", file=sys.stderr)
    delivery = _per_delivery(_bytecodes)
    counts["delivery opcodes"] = sum(delivery[f"opcodes {name}"] for name in (
        "Host.receive_packet", "DeliveryMonitor.record_delivery"))
    for miss, label in ((False, "probe hit"), (True, "probe miss")):
        counts[f"{label} frames"] = _futile_probe(miss, _frames)["frames"]
        counts[f"{label} opcodes"] = _futile_probe(miss, _bytecodes)["opcodes"]
    for window in (20, 100):
        counts[f"barrier flowmod K={window} opcodes"] = _barrier_flowmod_opcodes(window)
    print(json.dumps(counts))
