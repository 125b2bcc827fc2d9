"""The callback-chain switch agent against the generator agent it replaced.

``ControlPlane`` used to be two generator processes; it is now a chain of
plain kernel callbacks that promises **the same kernel event stream**: every
heap entry at the same float with the same sequence number, so no run digest
can tell the difference.  The generators live on in
``tests/oracles/generator_agent.py`` and are run here against the chain on
random message programs — every message kind, bursts and gaps, PacketIn
stolen time, crashes in every phase of a message's life, ``run(until=...)``
cuts.  Callback *labels* differ; nothing else may.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from generator_agent import GeneratorControlPlane

from repro.openflow import (
    BarrierReply,
    BarrierRequest,
    EchoRequest,
    FlowMod,
    Match,
    OutputAction,
    PacketIn,
    PacketOut,
)
from repro.openflow.connection import Connection
from repro.openflow.constants import FlowModCommand, StatsType
from repro.openflow.messages import FeaturesRequest, Hello, StatsRequest
from repro.packet.packet import make_ip_packet
from repro.sim.kernel import Simulator
from repro.sim.rng import SeededRandom
from repro.switches import BarrierMode, DataPlaneSyncModel, hp5406zl_profile
from repro.switches.controlplane import ControlPlane
from repro.switches.dataplane import DataPlane

#: Gaps between program steps: the same instant (bursts; a crash *during* a
#: hand-off), inside a trivial / a FlowMod processing delay (arrivals while
#: busy, crashes mid-processing), and long enough for the agent to go idle.
_GAPS = st.sampled_from((0.0, 0.0, 0.0, 1e-5, 0.0005, 0.002, 0.004, 0.05, 0.5))

_COMMANDS = (FlowModCommand.ADD, FlowModCommand.ADD, FlowModCommand.MODIFY,
             FlowModCommand.DELETE, FlowModCommand.DELETE_STRICT)

#: (key, command, xid slot): few keys and a table of four fill it up; few xid
#: slots repeat xids (duplicates within a boot, fresh after a crash).
_FLOWMODS = st.tuples(st.just("flowmod"), st.integers(0, 6),
                      st.sampled_from(_COMMANDS), st.integers(0, 9))
_ACTIONS = st.one_of(
    _FLOWMODS,
    _FLOWMODS,
    st.tuples(st.just("barrier")),
    st.tuples(st.just("packet_out")),
    st.tuples(st.just("echo")),
    st.tuples(st.just("features")),
    st.tuples(st.just("stats"), st.sampled_from(list(StatsType))),
    st.tuples(st.just("hello")),
    st.tuples(st.just("unknown")),
    st.tuples(st.just("packet_in")),
    st.tuples(st.just("crash"), st.booleans()),
    st.tuples(st.just("restore")),
)
#: A crash and the restart that follows it, both close to whatever came
#: before: the pair that decides what a crash may leave behind.
_OUTAGES = st.tuples(
    st.sampled_from((0.0, 1e-5, 0.0005, 0.002)), st.booleans(),
    st.sampled_from((0.0, 1e-5, 0.0005, 0.05)),
).map(lambda outage: [(outage[0], ("crash", outage[1])), (outage[2], ("restore",))])
_STEPS = st.tuples(_GAPS, _ACTIONS).map(lambda step: [step])
_PROGRAMS = st.lists(
    st.one_of(_STEPS, _STEPS, _STEPS, _OUTAGES), min_size=1, max_size=30,
).map(lambda episodes: [step for episode in episodes for step in episode])
_CUTS = st.lists(st.sampled_from((0.0, 0.001, 0.0035, 0.0105, 0.06, 0.7)),
                 max_size=3).map(sorted)
_PROFILES = st.fixed_dictionaries({
    "sync_model": st.sampled_from(list(DataPlaneSyncModel)),
    "barrier_mode": st.sampled_from(list(BarrierMode)),
    "reorders_across_barriers": st.booleans(),
    "flowmod_jitter": st.sampled_from((0.0, 0.05)),
    "table_capacity": st.sampled_from((None, 4)),
    # The calibrated 20 us, and one long enough for a crash to land inside.
    "packet_in_processing_time": st.sampled_from((0.00002, 0.001)),
})


class _LoggingSimulator(Simulator):
    """Keeps the firing time of every heap entry, in scheduling order — the
    entry's sequence number is its index.  With the ``(time, entries
    scheduled so far)`` of every executed callback this pins the whole heap
    history without naming a callback."""

    __slots__ = ("scheduled",)

    def __init__(self) -> None:
        super().__init__()
        self.scheduled = []

    def schedule_callback(self, delay, callback, *args):
        self.scheduled.append(self.now + delay)
        super().schedule_callback(delay, callback, *args)

    def schedule_at(self, time, callback, *args):
        self.scheduled.append(time)
        super().schedule_at(time, callback, *args)


def _message(index, action):
    """The OpenFlow message of one program step (explicit, run-stable xids)."""
    kind = action[0]
    if kind == "flowmod":
        _kind, key, command, slot = action
        return FlowMod(Match(tp_dst=key), [OutputAction(1 + key % 2)],
                       command=command, xid=100 + slot)
    if kind == "barrier":
        return BarrierRequest(xid=1000 + index)
    if kind == "packet_out":
        return PacketOut(make_ip_packet("10.0.0.1", "10.0.0.2"), [OutputAction(1)],
                         in_port=3, xid=2000 + index)
    if kind == "echo":
        return EchoRequest(payload=bytes([index]), xid=3000 + index)
    if kind == "features":
        return FeaturesRequest(xid=4000 + index)
    if kind == "stats":
        return StatsRequest(action[1], xid=5000 + index)
    if kind == "hello":
        return Hello(xid=6000 + index)
    return BarrierReply(xid=7000 + index)  # nothing an agent expects to receive


def _sent_up(sim, log):
    """``send_to_controller`` onto a real channel (a send is a heap entry, so
    *when* in its callback an agent sends shows in the sequence numbers) that
    also records every message with its send time."""
    upstream = Connection(sim, name="ctl-SW").side_a

    def send(message):
        detail = {key: value for key, value in sorted(vars(message).items())
                  if key != "packet"}
        log.append((sim.now, type(message).__name__, repr(detail)))
        upstream.send(message)
    return send


def _execute(agent_class, overrides, program, cuts):
    """Run ``program`` on a bare agent; returns everything observable."""
    sim = _LoggingSimulator()
    dataplane = DataPlane(sim, name="SW.data")
    sent, injected, stream, at_cuts = [], [], [], []
    plane = agent_class(
        sim, hp5406zl_profile().with_overrides(**overrides),
        send_to_controller=_sent_up(sim, sent),
        apply_to_dataplane=dataplane.apply_flowmod,
        inject_packet=lambda packet, actions, in_port: injected.append(
            (sim.now, in_port, len(actions))),
        rng=SeededRandom(5), ports=[1, 2], name="SW")
    plane.start()

    def crash(wipe_table):
        dataplane.wipe()
        plane.crash_reset(wipe_table=wipe_table)

    # Everything is scheduled up front, so same-instant steps run in program
    # order *before* the zero-delay hand-offs they cause: "receive, crash"
    # with gap 0 is a crash during the hand-off.
    now = 0.0
    for index, (gap, action) in enumerate(program):
        now += gap
        if action[0] == "crash":
            sim.schedule_at(now, crash, action[1])
        elif action[0] == "restore":
            sim.schedule_at(now, plane.restore)
        elif action[0] == "packet_in":
            packet = make_ip_packet("10.0.0.9", "10.0.0.8")
            sim.schedule_at(now, plane.send_packet_in,
                            lambda packet=packet, index=index: PacketIn(
                                packet, in_port=2, xid=8000 + index))
        else:
            sim.schedule_at(now, plane.receive, _message(index, action))

    sim.observer = (
        lambda sim, time, _callback, _args: stream.append((time, sim.schedule_sequence)))
    for until in cuts:
        sim.run(until=until)
        at_cuts.append((sim.now, sim.steps_executed, sim.schedule_sequence,
                        sim.pending_count))
    sim.run(until=now + 2.0)
    return {
        "stream": stream,
        "scheduled": sim.scheduled,
        "cuts": at_cuts,
        "end": (sim.now, sim.steps_executed, sim.schedule_sequence, sim.pending_count),
        "control_apply_log": plane.control_apply_log,
        "barrier_reply_log": plane.barrier_reply_log,
        "dataplane_apply_log": dataplane.apply_log,
        "sent": sent,
        "injected": injected,
        "counters": (plane.flowmods_processed, plane.packet_outs_processed,
                     plane.packet_ins_sent, plane.duplicate_flowmods,
                     plane.crash_epoch, plane.crashed, plane.pending_dataplane_ops,
                     len(plane.table), dataplane.occupancy(), plane._stolen_time,
                     plane._barrier_epoch, len(plane._barrier_waiters)),
    }


_HARDWARE = {"sync_model": DataPlaneSyncModel.RATE_LIMITED,
             "barrier_mode": BarrierMode.CORRECT, "reorders_across_barriers": False,
             "flowmod_jitter": 0.05, "table_capacity": None,
             "packet_in_processing_time": 0.001}
_ADD = ("flowmod", 0, FlowModCommand.ADD, 0)


@settings(max_examples=250, deadline=None)
@given(overrides=_PROFILES, program=_PROGRAMS, cuts=_CUTS)
# A crash + restart inside the stolen-time sleep, mid-processing, during the
# hand-off, and on a backlog that a barrier and an echo are queued in.
@example(overrides=_HARDWARE, cuts=[], program=[
    (0.1, ("packet_in",)), (0.0, _ADD), (0.0005, ("crash", True)), (0.0, ("restore",))])
@example(overrides=_HARDWARE, cuts=[0.1015], program=[
    (0.1, _ADD), (0.002, ("crash", True)), (1e-5, ("restore",)), (0.0, _ADD)])
@example(overrides=_HARDWARE, cuts=[], program=[
    (0.1, _ADD), (0.0, ("crash", False)), (0.0, _ADD), (1e-5, ("restore",)), (0.0, _ADD)])
@example(overrides=_HARDWARE, cuts=[], program=[
    (0.1, _ADD), (0.0, ("barrier",)), (0.0, ("echo",)), (0.0, ("packet_out",)),
    (0.0036, ("crash", True)), (0.0, ("restore",)), (0.0, ("echo",))])
def test_the_callback_chain_is_the_generator_agents_kernel_event_stream(
        overrides, program, cuts):
    chain = _execute(ControlPlane, overrides, program, cuts)
    oracle = _execute(GeneratorControlPlane, overrides, program, cuts)
    for key, expected in oracle.items():
        # ``==`` on every float: these times are digest inputs.
        assert chain[key] == expected, key


def test_the_programs_do_reach_the_edges_they_are_drawn_for():
    # Guard the test itself, on a program written out by hand: a duplicate
    # xid, a full table, both barrier outcomes, stolen time, and a crash in
    # each phase of a message's life — all through both agents, identically.
    add = lambda key, slot: ("flowmod", key, FlowModCommand.ADD, slot)
    program = [
        (0.5, add(0, 0)), (0.0, add(1, 1)), (0.0, ("barrier",)),   # a burst, while idle
        (0.002, add(0, 0)),                                         # duplicate xid, while busy
        (0.0, add(2, 2)), (0.0, add(3, 3)), (0.0, add(4, 4)),       # the fifth rule: table full
        (0.0, ("packet_in",)), (0.0, ("echo",)), (0.0, ("stats", StatsType.TABLE)),
        (0.5, add(5, 5)), (0.0, ("crash", True)), (0.0001, ("restore",)),  # during the hand-off
        (0.5, add(6, 6)), (0.001, ("crash", True)), (0.0001, ("restore",)),  # mid-processing
        (0.5, add(0, 7)), (0.0, add(1, 8)), (0.0, ("barrier",)),
        (0.0005, ("crash", False)),                                 # with a queued backlog
        (0.1, ("restore",)), (0.0, add(0, 0)), (0.0, ("barrier",)), (0.0, ("packet_out",)),
    ]
    overrides = {"sync_model": DataPlaneSyncModel.RATE_LIMITED,
                 "barrier_mode": BarrierMode.CORRECT,
                 "reorders_across_barriers": False, "flowmod_jitter": 0.05,
                 "table_capacity": 4}
    chain = _execute(ControlPlane, overrides, program, [0.5, 1.0015])
    assert chain == _execute(GeneratorControlPlane, overrides, program, [0.5, 1.0015])
    sent = [(name, detail) for _time, name, detail in chain["sent"]]
    assert [name for name, _detail in sent] == [
        "PacketIn", "ErrorMessage", "EchoReply", "StatsReply", "BarrierReply",
        "BarrierReply"]
    assert "'xid': 104" in sent[1][1]  # ... the table-full error names the fifth rule
    (_flowmods, packet_outs, packet_ins, duplicates, epoch, crashed,
     pending, control_rules, data_rules, *_rest) = chain["counters"]
    assert (packet_outs, packet_ins, duplicates, epoch, crashed) == (1, 1, 1, 3, False)
    # Only what arrived after the last restart survives: slot 0 again (a fresh
    # boot forgot the xid), and neither message caught by a crash was applied.
    assert pending == 0 and control_rules == data_rules == 1
    assert sorted(chain["control_apply_log"]) == [100, 101, 102, 103]
    assert [xid for _time, xid in chain["barrier_reply_log"]] == [1002, 1022]
