"""Tests for the fault-injection subsystem: the fault registry, the nine
built-in fault models (all three layers), the ``FaultPlan`` codec and arming,
the session/scenario/campaign integration, the resilience report, and the
guarantee that an absent or empty plan is byte-identical to the fault-free
path (pinned against digests captured before the subsystem existed)."""

import json
import math

import pytest

from repro.campaign import CampaignSpec, render_report, run_cell
from repro.campaign.report import has_fault_axis, resilience
from repro.experiments.common import EndToEndParams, migration_session, run_path_migration
from repro.faults import (
    CONTROL_CHANNEL,
    DATA_PLANE,
    LIFECYCLE,
    FAULTS,
    DataPlaneFault,
    FaultPlan,
    FaultSpec,
    GroupSpec,
    RollingSpec,
    arm_fault_plan,
    available_faults,
    get_fault,
)
from repro.openflow import BarrierRequest, BarrierReply, FlowMod, Match, OutputAction
from repro.openflow.connection import Connection
from repro.scenarios import ScenarioParams, run_scenario
from repro.session import RunRecord
from repro.sim import Simulator
from repro.sim.rng import SeededRandom
from repro.switches import Switch, software_switch_profile


def _migration_params(**overrides):
    defaults = dict(flow_count=4, rate_pps=250.0, seed=7, warmup=0.1,
                    grace=0.2, max_update_duration=5.0)
    defaults.update(overrides)
    return EndToEndParams(**defaults)


def _wired_switch(profile=None):
    sim = Simulator()
    switch = Switch(sim, "SW", profile or software_switch_profile(), datapath_id=1)
    connection = Connection(sim, latency=0.0005)
    switch.connect_controller(connection.side_a)
    replies = []
    connection.side_b.on_message(lambda message: replies.append((sim.now, message)))
    switch.start()
    return sim, switch, connection, replies


def _flowmods(count, out_port=1):
    from repro.packet.addresses import int_to_ip

    return [
        FlowMod(Match(ip_src=int_to_ip(0x0A000001 + index), ip_dst="10.0.128.1"),
                [OutputAction(out_port)], priority=100)
        for index in range(count)
    ]


def _faulted_migration(technique, plan_string, **param_overrides):
    spec = migration_session(technique, _migration_params(**param_overrides))
    spec.faults = FaultPlan.from_string(plan_string)
    return spec.run()


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

@pytest.fixture()
def toy_fault():
    # Defining the class registers it, so it lives only as long as the test.
    class ToyFault(DataPlaneFault):
        """Swallow everything."""

        name = "toy-blackhole"
        param_defaults = {}

        def intercept(self, flowmod, apply):
            self.count("swallowed")
            return True

    try:
        yield ToyFault
    finally:
        FAULTS.pop(ToyFault.name)


class TestFaultRegistry:
    def test_builtins_registered_on_all_three_layers(self):
        assert {"delay-spike", "reorder", "rule-drop"} <= set(
            available_faults(DATA_PLANE))
        assert {"ack-loss", "ack-duplicate", "premature-ack", "channel-jitter",
                "disconnect"} <= set(available_faults(CONTROL_CHANNEL))
        assert {"switch-crash"} <= set(available_faults(LIFECYCLE))

    def test_get_fault_unknown_name(self):
        with pytest.raises(KeyError, match="unknown fault"):
            get_fault("cosmic-ray")

    def test_instantiate_rejects_unknown_and_bad_params(self):
        with pytest.raises(ValueError, match="does not accept"):
            get_fault("ack-loss")(probabilty=0.5)  # typo
        with pytest.raises(ValueError, match="probability"):
            get_fault("ack-loss")(probability=1.5)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("name, key", [
        (name, key) for name in available_faults()
        for key, default in get_fault(name).param_defaults.items()
        if not isinstance(default, bool)])
    def test_every_model_rejects_a_non_finite_parameter(self, name, key, value):
        # No plan string can spell one, so none may validate.
        with pytest.raises(ValueError, match="not finite"):
            get_fault(name)(**{key: value})

    def test_register_fault_decorator_and_unregister(self, toy_fault):
        assert get_fault("toy-blackhole") is toy_fault
        assert "toy-blackhole" in available_faults(DATA_PLANE)
        assert toy_fault.layer == DATA_PLANE
        with pytest.raises(ValueError, match="already registered"):
            class Twin(DataPlaneFault):
                name = "toy-blackhole"
        assert get_fault("toy-blackhole") is toy_fault

    def test_layer_is_validated(self):
        with pytest.raises(ValueError, match="layer"):
            class Nowhere(DataPlaneFault):
                name = "toy-nowhere"
                layer = "hyperspace"
        assert "toy-nowhere" not in available_faults()


# ---------------------------------------------------------------------------
# Individual fault models
# ---------------------------------------------------------------------------

class TestDataPlaneFaults:
    def test_rule_drop_leaves_control_plane_ahead_forever(self):
        sim, switch, connection, _replies = _wired_switch()
        fault = get_fault("rule-drop")(probability=1.0)
        fault.arm(sim, SeededRandom(3))
        from repro.faults import DataPlaneFaultHarness

        DataPlaneFaultHarness(switch, [fault])
        connection.side_b.send(_flowmods(3)[0])
        sim.run(until=2.0)
        assert len(switch.controlplane.table) == 1
        assert switch.dataplane.occupancy() == 0
        assert not switch.planes_agree()
        assert fault.counters() == {"rules_dropped": 1}


class TestControlChannelFaults:
    def _barrier_roundtrip(self, plan_string, barriers=4):
        sim, switch, connection, replies = _wired_switch()
        armed_faults = [
            get_fault(spec.fault)(**spec.params)
            for spec in FaultPlan.from_string(plan_string).specs
        ]
        for index, fault in enumerate(armed_faults):
            fault.arm(sim, SeededRandom(11 + index))
        from repro.faults import ControlChannelHarness

        ControlChannelHarness(connection, armed_faults)
        for index in range(barriers):
            connection.side_b.send(BarrierRequest(xid=1000 + index))
        sim.run(until=2.0)
        barrier_replies = [m for _t, m in replies if isinstance(m, BarrierReply)]
        return barrier_replies, armed_faults

    def test_ack_loss_drops_all_replies(self):
        replies, faults = self._barrier_roundtrip("ack-loss(probability=1.0)")
        assert replies == []
        assert faults[0].counters()["acks_dropped"] == 4

    def test_ack_duplicate_delivers_copies(self):
        replies, faults = self._barrier_roundtrip(
            "ack-duplicate(probability=1.0,copies=2)")
        assert len(replies) == 12  # 4 barriers x (1 original + 2 copies)
        assert faults[0].counters()["acks_duplicated"] == 4

    def test_premature_ack_confirms_before_the_switch_and_dedups(self):
        sim, switch, connection, replies = _wired_switch()
        fault = get_fault("premature-ack")(probability=1.0)
        fault.arm(sim, SeededRandom(5))
        from repro.faults import ControlChannelHarness

        ControlChannelHarness(connection, [fault])
        # A slow FlowMod before the barrier: the genuine reply would have to
        # wait for it, the premature one must not.
        connection.side_b.send(_flowmods(1)[0])
        connection.side_b.send(BarrierRequest(xid=77))
        sim.run(until=2.0)
        barrier_replies = [(t, m) for t, m in replies if isinstance(m, BarrierReply)]
        assert len(barrier_replies) == 1  # the late real reply was suppressed
        reply_time, reply = barrier_replies[0]
        assert reply.xid == 77
        # Arrived after a single one-way latency, i.e. before the switch
        # could even have received the request (which takes one full one-way
        # trip itself, plus processing, plus the reply's way back).
        assert reply_time == pytest.approx(0.0005, abs=1e-6)
        assert fault.counters() == {"premature_acks": 1,
                                    "late_acks_suppressed": 1}
        # The switch still did the work it had already "confirmed".
        assert switch.dataplane.occupancy() == 1

    def test_channel_jitter_preserves_fifo_order(self):
        sim, switch, connection, replies = _wired_switch()
        fault = get_fault("channel-jitter")(max_jitter=0.2)
        fault.arm(sim, SeededRandom(9))
        from repro.faults import ControlChannelHarness

        ControlChannelHarness(connection, [fault])
        for flowmod in _flowmods(8):
            connection.side_b.send(flowmod)
        sim.run(until=3.0)
        applied = [xid for _t, xid in switch.dataplane.apply_log]
        assert applied == sorted(applied)  # jitter delays, never reorders
        assert switch.dataplane.occupancy() == 8
        assert fault.counters()["messages_jittered"] >= 8

    def test_disconnect_loses_messages_during_the_outage(self):
        sim, switch, connection, _replies = _wired_switch()
        fault = get_fault("disconnect")(at=0.0, outage=1.0)
        fault.arm(sim, SeededRandom(2))
        from repro.faults import ControlChannelHarness

        ControlChannelHarness(connection, [fault])
        connection.side_b.send(_flowmods(2)[0])  # lost: inside the outage
        sim.schedule_callback(1.5, connection.side_b.send, _flowmods(2)[1])
        sim.run(until=3.0)
        assert switch.dataplane.occupancy() == 1
        assert fault.counters()["messages_lost"] == 1

    def test_composed_faults_all_see_the_message(self):
        # channel-jitter forwards every message; ack-loss later in the chain
        # must still get its shot at the barrier replies.
        replies, faults = self._barrier_roundtrip(
            "channel-jitter(max_jitter=0.01)+ack-loss(probability=1.0)")
        assert replies == []
        jitter, ack_loss = faults
        assert jitter.counters()["messages_jittered"] >= 4
        assert ack_loss.counters()["acks_dropped"] == 4

    def test_ack_loss_can_drop_a_premature_ack(self):
        # Fabricated messages enter the chain after the fabricating fault:
        # with total ack loss downstream, not even premature acks get out.
        replies, _faults = self._barrier_roundtrip(
            "premature-ack(probability=1.0)+ack-loss(probability=1.0)")
        assert replies == []

    def test_connection_rejects_second_interceptor(self):
        sim = Simulator()
        connection = Connection(sim)
        connection.install_intercept(lambda side, message: False)
        with pytest.raises(ValueError, match="interceptor"):
            connection.install_intercept(lambda side, message: False)
        connection.remove_intercept()
        connection.install_intercept(lambda side, message: False)


class TestSwitchCrash:
    def test_crash_wipes_tables_and_drops_packets_until_restart(self):
        sim, switch, connection, _replies = _wired_switch()
        for flowmod in _flowmods(3):
            switch.install_rule_directly(flowmod)
        fault = get_fault("switch-crash")(at=0.5, restart_after=0.5)
        fault.arm(sim, SeededRandom(4))
        fault.schedule(switch)
        sim.run(until=0.6)
        assert switch.crashed
        assert switch.dataplane.occupancy() == 0
        assert len(switch.controlplane.table) == 0
        # Packets and control messages are lost while down.
        before = switch.packets_received
        from repro.packet.packet import make_ip_packet

        sim.schedule_callback(switch.ingress_latency, switch.receive_packet,
                              make_ip_packet("10.0.0.1", "10.0.128.1"), 1, sim.now)
        connection.side_b.send(_flowmods(1)[0])
        sim.run(until=0.9)
        assert switch.packets_received == before
        assert switch.dataplane.occupancy() == 0
        sim.run(until=1.5)
        assert not switch.crashed
        # Back up: new rules install again into the (wiped) tables.
        connection.side_b.send(_flowmods(1)[0])
        sim.run(until=2.0)
        assert switch.dataplane.occupancy() == 1
        assert fault.counters() == {"crashes": 1, "restarts": 1}

    def test_data_plane_only_reset_keeps_control_table(self):
        sim, switch, _connection, _replies = _wired_switch()
        switch.install_rule_directly(_flowmods(1)[0])
        switch.crash(wipe_control_plane=False)
        assert switch.dataplane.occupancy() == 0
        assert len(switch.controlplane.table) == 1

    def test_crash_aborts_the_in_flight_flowmod(self):
        # Crash lands while the agent is mid-way through processing a
        # FlowMod: the modification must not install into the wiped tables.
        sim, switch, connection, _replies = _wired_switch()
        connection.side_b.send(_flowmods(1)[0])
        # One-way latency is 0.5 ms; processing takes ~1 ms more.
        sim.schedule_callback(0.0011, switch.crash)
        sim.run(until=2.0)
        assert switch.crashed
        assert len(switch.controlplane.table) == 0
        assert switch.dataplane.occupancy() == 0

    def test_crash_voids_a_delayed_dataplane_application(self):
        # A delay spike holds a rule in flight; the switch crashes before it
        # lands: the wiped data plane of the (still down) switch must stay
        # empty when the spike callback fires.
        from repro.faults import DataPlaneFaultHarness

        sim, switch, connection, _replies = _wired_switch()
        fault = get_fault("delay-spike")(probability=1.0, spike=1.0)
        fault.arm(sim, SeededRandom(6))
        DataPlaneFaultHarness(switch, [fault])
        connection.side_b.send(_flowmods(1)[0])
        sim.schedule_callback(0.5, switch.crash)
        sim.run(until=3.0)
        assert fault.counters()["delay_spikes"] == 1
        assert switch.crashed
        assert switch.dataplane.occupancy() == 0

    def test_restart_does_not_resurrect_pre_crash_work(self):
        # The spike callback fires *after* the switch has crashed and
        # restarted; the rule belongs to the pre-crash epoch and must stay
        # out of the rebooted switch's (empty) tables.
        from repro.faults import DataPlaneFaultHarness

        sim, switch, connection, _replies = _wired_switch()
        fault = get_fault("delay-spike")(probability=1.0, spike=2.0)
        fault.arm(sim, SeededRandom(6))
        DataPlaneFaultHarness(switch, [fault])
        connection.side_b.send(_flowmods(1)[0])
        sim.schedule_callback(0.5, switch.crash)
        sim.schedule_callback(1.0, switch.restore)
        sim.run(until=4.0)
        assert not switch.crashed
        assert fault.counters()["delay_spikes"] == 1
        assert switch.dataplane.occupancy() == 0

    def test_harnesses_chain_instead_of_clobbering(self):
        # A harness installed directly (fig2's firewall fault) before a
        # FaultPlan harness must keep running behind it.
        from repro.faults import DataPlaneFaultHarness

        sim, switch, connection, _replies = _wired_switch()
        first = get_fault("delay-spike")(probability=1.0, spike=1.0)
        first.arm(sim, SeededRandom(7))
        DataPlaneFaultHarness(switch, [first])
        plan_fault = get_fault("rule-drop")(probability=0.0)
        plan_fault.arm(sim, SeededRandom(8))
        DataPlaneFaultHarness(switch, [plan_fault])
        connection.side_b.send(_flowmods(1)[0])
        sim.run(until=0.5)
        assert switch.dataplane.occupancy() == 0  # the first spike still holds it
        sim.run(until=2.0)
        assert switch.dataplane.occupancy() == 1
        assert first.counters()["delay_spikes"] == 1

    def test_reorder_buffer_items_die_with_a_crash(self):
        # Two FlowMods buffered pre-crash, two arriving post-restart: only
        # the post-restart pair may reach the data plane when the window
        # finally flushes.
        from repro.faults import DataPlaneFaultHarness

        sim, switch, connection, _replies = _wired_switch()
        fault = get_fault("reorder")(window=4, hold_time=10.0)
        fault.arm(sim, SeededRandom(12))
        DataPlaneFaultHarness(switch, [fault])
        flowmods = _flowmods(4)
        for flowmod in flowmods[:2]:
            connection.side_b.send(flowmod)
        sim.schedule_callback(0.5, switch.crash)
        sim.schedule_callback(1.0, switch.restore)
        for flowmod in flowmods[2:]:
            sim.schedule_callback(1.5, connection.side_b.send, flowmod)
        sim.run(until=3.0)
        applied = {xid for _t, xid in switch.dataplane.apply_log}
        assert applied == {flowmod.xid for flowmod in flowmods[2:]}
        assert switch.dataplane.occupancy() == 2

    def test_messages_queued_before_crash_die_with_the_agent(self):
        # A barrier sitting in the agent's inbox when the crash hits must
        # never be answered — not even after the restart.
        sim, switch, connection, replies = _wired_switch()
        for flowmod in _flowmods(4):
            connection.side_b.send(flowmod)
        connection.side_b.send(BarrierRequest(xid=55))
        sim.schedule_callback(0.0011, switch.crash)
        sim.schedule_callback(0.5, switch.restore)
        sim.run(until=3.0)
        assert not switch.crashed
        assert [m for _t, m in replies if isinstance(m, BarrierReply)] == []
        assert switch.dataplane.occupancy() == 0

    def test_a_flowmod_taken_before_a_crash_never_reaches_the_restarted_switch(self):
        # The agent takes the FlowMod at 10 ms and first pays 2 ms of
        # PacketIn time; the switch crashes and restarts inside that sleep.
        # The message is from before the crash: it must not be applied to
        # the wiped tables (its epoch used to be read only after the sleep).
        from repro.switches import HardwareSwitch, correct_hardware_profile

        sim = Simulator()
        switch = HardwareSwitch(sim, "SW", correct_hardware_profile())
        switch.start()
        switch.controlplane._stolen_time = 0.002
        sim.schedule_at(0.010, switch.controlplane.receive, _flowmods(1)[0])
        sim.schedule_at(0.0115, switch.crash)
        sim.schedule_at(0.0120, switch.restore)
        sim.run(until=1.0)
        assert not switch.crashed
        assert switch.controlplane.control_apply_log == {}
        assert len(switch.controlplane.table) == switch.dataplane.occupancy() == 0


class TestDarknessIsJudgedAtArrival:
    """Traffic *through* a crashed / flapped middle switch of H1-S1-S2-S3-H2.

    A link hands a packet to S2 one ingress delay (10 us) after it left the
    wire; whether S2's ports were dark is judged as of the arrival, whether
    S2 is crashed (and what its tables and port map hold) as of the due time.
    Links never drop, so what S2 forwarded is what S3 received; what S2's
    data plane processed is counted by ``_line``.
    """

    US = 1e-6
    #: When the first packet leaves H1; it reaches S2's port at ``ARRIVAL``.
    SENT = 0.01

    @staticmethod
    def _arrival_at_s2(sent_at):
        def wire(time):  # 142 bytes at 1 Gb/s, then 100 us of propagation
            return time + 142 * 8 / 1e9 + 1e-4
        return wire(wire(sent_at) + 1e-5)  # ... through S1's own ingress delay

    def _line(self, offsets_us=(0.0,)):
        """The line, one flow's rules, and a packet leaving H1 at ``SENT`` plus
        each offset; returns ``(sim, network, S2, arm)``."""
        from repro.controller.routing import install_path_rules, path_flowmods
        from repro.net.network import Network
        from repro.net.topology import linear_topology
        from repro.net.traffic import flows_between
        from repro.packet.packet import make_ip_packet

        sim = Simulator()
        network = Network(sim, linear_topology(3), seed=2)
        network.start()
        (flow,) = flows_between(network.host("H1"), network.host("H2"), 1)
        self.rules = path_flowmods(network, flow, ["H1", "S1", "S2", "S3", "H2"])
        install_path_rules(network, self.rules)
        for sequence, offset in enumerate(offsets_us):
            sim.schedule_at(self.SENT + offset * self.US, network.host("H1").send,
                            make_ip_packet(flow.ip_src, flow.ip_dst, flow_id=flow.flow_id,
                                           sequence=sequence))
        switch = network.switch("S2")
        process, self.processed, self.dropped = switch.dataplane.process_packet, 0, 0

        def counted(packet, in_port):
            self.processed += 1
            result = process(packet, in_port)
            # A drop: matched nothing, or a rule that sends the packet nowhere.
            self.dropped += not (result.output_ports or result.to_controller)
            return result

        switch.dataplane.process_packet = counted

        def arm(fault_name, **params):
            fault = get_fault(fault_name)(**params)
            fault.arm(sim, SeededRandom(4))
            fault.schedule(switch)

        return sim, network, switch, arm

    @staticmethod
    def _delivered(network):
        return [record.sequence for record in network.monitor.deliveries("flow-0000")]

    def test_the_arrival_time_is_the_one_the_test_computes(self):
        sim, network, switch, _arm = self._line()
        arrival = self._arrival_at_s2(self.SENT)
        sim.run(until=arrival + 9.9 * self.US)
        assert switch.packets_received == 0  # still inside its ingress delay
        sim.run(until=arrival + 10.1 * self.US)
        assert switch.packets_received == self.processed == 1
        sim.run()
        assert network.switch("S3").packets_received == 1  # ... and forwarded
        assert self._delivered(network) == [0]

    def test_arrives_lit_falls_due_crashed(self):
        sim, network, switch, arm = self._line()
        arm("switch-crash", at=self._arrival_at_s2(self.SENT) + 5 * self.US, restart_after=0)
        sim.run()
        # It was on a lit port, so it was received — and died with the switch.
        assert (switch.packets_received, self.processed) == (1, 0)
        assert self._delivered(network) == []

    def test_arrives_lit_falls_due_flapped(self):
        sim, network, switch, arm = self._line(offsets_us=(0.0, 1000.0))
        arm("link-flap", at=self._arrival_at_s2(self.SENT) + 5 * self.US, duration=2e-4)
        sim.run()
        # The first was matched (the tables survive a flap) against an empty
        # port map: processed, forwarded nowhere.  The second came after.
        assert switch.packets_received == self.processed == 2
        assert network.switch("S3").packets_received == 1
        assert self.dropped == 0
        assert self._delivered(network) == [1]
        assert "receive_packet" not in vars(switch)

    @pytest.mark.parametrize("fault, params", [
        ("switch-crash", {"restart_after": 1e-5}),
        ("link-flap", {"duration": 1e-5}),
    ])
    def test_arrives_dark_falls_due_lit(self, fault, params):
        # Dark from 5 us before the arrival to 5 us after it: the restore /
        # ``_up`` lands inside the ingress window, and changes nothing.
        sim, network, switch, arm = self._line(offsets_us=(0.0, 1000.0))
        arm(fault, at=self._arrival_at_s2(self.SENT) - 5 * self.US, **params)
        sim.run()
        assert not switch.crashed and "receive_packet" not in vars(switch)
        # Only the later packet was received; after a crash it meets wiped tables.
        assert switch.packets_received == self.processed == 1
        assert self._delivered(network) == ([1] if fault == "link-flap" else [])

    def test_two_dark_windows_closer_together_than_the_ingress_delay(self):
        # Arrivals at -2, 0 and +3 us; dark over [-3, -1] and [+2, +4]; all
        # three fall due (+8, +10, +13 us) after both windows have closed.
        sim, network, switch, arm = self._line(offsets_us=(-2.0, 0.0, 3.0))
        arrival = self._arrival_at_s2(self.SENT)
        arm("link-flap", at=arrival - 3 * self.US, duration=2 * self.US)
        arm("link-flap", at=arrival + 2 * self.US, duration=2 * self.US)
        sim.run()
        assert self._delivered(network) == [1]
        assert switch.packets_received == 1 and "receive_packet" not in vars(switch)

    def test_a_flap_overlapping_a_crash_is_one_dark_window(self):
        # Flapped over [0, 100] us, crashed over [50, 150] us (relative to the
        # first arrival - 10 us); packets arrive at +10 (flapped), +70 (both),
        # +120 (crashed only) and +200 us (lit again, tables wiped).
        sim, network, switch, arm = self._line(offsets_us=(0.0, 60.0, 110.0, 190.0))
        dark_from = self._arrival_at_s2(self.SENT) - 10 * self.US
        arm("link-flap", at=dark_from, duration=100 * self.US)
        arm("switch-crash", at=dark_from + 50 * self.US, restart_after=100 * self.US)
        sim.run()
        assert switch._dark_log == [dark_from, dark_from + 50 * self.US + 100 * self.US]
        assert switch.packets_received == 1 and self.dropped == 1
        assert self._delivered(network) == []
        # The flap gave the ports back while the switch was still down.
        switch.install_rule_directly(self.rules.flowmods["S2"])
        from repro.packet.packet import make_ip_packet

        network.host("H1").send(make_ip_packet(
            "10.0.0.1", "10.0.128.1", flow_id="flow-0000", created_at=sim.now, sequence=4))
        sim.run()
        assert self._delivered(network) == [4] and "receive_packet" not in vars(switch)


# ---------------------------------------------------------------------------
# FaultPlan codecs and arming
# ---------------------------------------------------------------------------

class TestFaultPlan:
    def test_string_round_trip(self):
        text = "ack-loss(probability=0.3)@s1|s2+delay-spike(probability=0.05,spike=2.0)"
        plan = FaultPlan.from_string(text)
        assert plan.to_string() == text
        assert FaultPlan.from_string(plan.to_string()) == plan
        built = FaultPlan(
            [FaultSpec("ack-loss", {"probability": 0.3}, targets=("s1", "s2")),
             FaultSpec("switch-crash", {"at": 0.4})],
        )
        assert FaultPlan.from_string(built.to_string()) == built

    @pytest.mark.parametrize("entry", [
        GroupSpec(members=(FaultSpec("switch-crash"),), at=math.nan),
        GroupSpec(members=(FaultSpec("switch-crash"),), at=math.inf),
        RollingSpec(spec=FaultSpec("switch-crash"), stagger=math.nan),
        RollingSpec(spec=FaultSpec("switch-crash"), at=math.nan),
        RollingSpec(spec=FaultSpec("switch-crash"), at=math.inf),
    ], ids=["group-at-nan", "group-at-inf", "rolling-stagger-nan",
            "rolling-at-nan", "rolling-at-inf"])
    def test_a_non_finite_group_or_rolling_time_fails_validation(self, entry):
        # Its string would not parse, so the value may not validate either.
        plan = FaultPlan([entry])
        with pytest.raises(ValueError, match="non-finite number"):
            FaultPlan.from_string(plan.to_string())
        with pytest.raises(ValueError, match="not finite"):
            plan.validate()

    def test_scalar_parsing(self):
        plan = FaultPlan.from_string(
            "switch-crash(at=0.25,restart_after=1,wipe_control_plane=false)")
        params = plan.specs[0].params
        assert params == {"at": 0.25, "restart_after": 1,
                          "wipe_control_plane": False}
        assert isinstance(params["restart_after"], int)

    def test_scientific_notation_params_round_trip(self):
        # str(1e20) renders as "1e+20": the '+' must not split the spec.
        plan = FaultPlan([FaultSpec("delay-spike", {"spike": 1e20}),
                          FaultSpec("ack-loss", {"probability": 1e-07})])
        reparsed = FaultPlan.from_string(plan.to_string())
        assert reparsed == plan
        assert reparsed.specs[0].params["spike"] == 1e20

    def test_none_spellings_mean_empty(self):
        for text in (None, "", "none", "NONE", " none "):
            assert FaultPlan.from_string(text).empty()
        assert FaultPlan().to_string() == "none"

    def test_bad_strings_rejected(self):
        with pytest.raises(ValueError, match="cannot parse"):
            FaultPlan.from_string("ack loss")
        with pytest.raises(ValueError, match="key=value"):
            FaultPlan.from_string("ack-loss(0.3)")
        with pytest.raises(ValueError, match="unknown fault 'gremlin'"):
            FaultPlan.from_string("gremlin(count=3)")
        # Near-miss names come back with a suggestion.
        with pytest.raises(ValueError, match="did you mean 'ack-loss'"):
            FaultPlan.from_string("ack-los(probability=0.3)")
        with pytest.raises(ValueError, match="unbalanced"):
            FaultPlan.from_string("rolling(switch-crash")

    def test_phase_is_no_spelling_of_group(self):
        # ``group(...)`` is the one correlated-group wrapper.
        text = "phase(switch-crash@S1)@t=0.5"
        with pytest.raises(ValueError, match="unknown fault 'phase'") as caught:
            FaultPlan.from_string(text)
        assert repr(text) in str(caught.value)

    @pytest.mark.parametrize("text", [
        "switch-crash(at=nan)", "disconnect(at=nan)", "switch-crash(at=inf)",
        "group(disconnect@L0)@t=nan", "rolling(switch-crash@*,stagger=nan)",
    ])
    def test_non_finite_numbers_rejected_naming_the_token(self, text):
        with pytest.raises(ValueError, match=r"non-finite number .* in '.*'") as caught:
            FaultPlan.from_string(text)
        assert repr(text) in str(caught.value)

    def test_arm_rejects_unknown_target(self):
        from repro.net.network import Network
        from repro.net.topology import triangle_topology

        sim = Simulator()
        network = Network(sim, triangle_topology(), seed=1)
        plan = FaultPlan([FaultSpec("ack-loss", targets=("nope",))])
        with pytest.raises(ValueError, match="unknown switch"):
            arm_fault_plan(sim, network, plan)

    def test_arm_topology_wide_instantiates_per_switch(self):
        from repro.net.network import Network
        from repro.net.topology import triangle_topology

        sim = Simulator()
        network = Network(sim, triangle_topology(), seed=1)
        armed = arm_fault_plan(
            sim, network, FaultPlan([FaultSpec("delay-spike")]))
        assert [target for target, _f in armed.instances] == network.switch_names()
        instances = [fault for _t, fault in armed.instances]
        assert len(set(map(id, instances))) == len(instances)
        # Each instance draws from its own forked stream.
        assert len({fault.rng.seed for fault in instances}) == len(instances)

    def test_empty_plan_arms_nothing(self):
        from repro.net.network import Network
        from repro.net.topology import triangle_topology

        sim = Simulator()
        network = Network(sim, triangle_topology(), seed=1)
        for plan in (None, FaultPlan()):
            armed = arm_fault_plan(sim, network, plan)
            assert armed.instances == [] and armed.harnesses == []
            assert armed.counters() == {}


# ---------------------------------------------------------------------------
# Byte-identical fault-free path
# ---------------------------------------------------------------------------

#: ``RunRecord.digest()`` values of fixed-seed fault-free runs captured on
#: the pre-fault-subsystem code (commit 9819ba0).  Runs with no plan — and
#: with an explicitly empty plan — must keep reproducing them exactly.
FAULT_FREE_DIGESTS = {
    "migration/barrier": "e74d41be727e0439",
    "migration/general": "fa781170587444df",
    "migration/no-wait": "3287f7b729fc2407",
    "scenario/path-migration/general": "753e382ef835556e",
    "scenario/link-failure/general": "a17ef6c573a95dfc",
    "scenario/ecmp-rebalance/barrier": "b56dc1eb1ac5008e",
}


class TestFaultFreePathUnchanged:
    @pytest.mark.parametrize("technique", ["barrier", "general", "no-wait"])
    def test_migration_digest_with_absent_plan(self, technique):
        record = run_path_migration(technique, _migration_params())
        assert record.digest() == FAULT_FREE_DIGESTS[f"migration/{technique}"]
        assert record.fault_events == {}
        assert "fault_events" not in record.as_dict()

    @pytest.mark.parametrize("plan", [FaultPlan(), FaultPlan.from_string("none")],
                             ids=["empty", "none-string"])
    def test_migration_digest_with_empty_plan(self, plan):
        spec = migration_session("barrier", _migration_params())
        spec.faults = plan
        record = spec.run()
        assert record.digest() == FAULT_FREE_DIGESTS["migration/barrier"]
        assert spec.config()["faults"] is None

    @pytest.mark.parametrize("scenario,technique", [
        ("path-migration", "general"),
        ("link-failure", "general"),
        ("ecmp-rebalance", "barrier"),
    ])
    def test_scenario_digest_with_none_string(self, scenario, technique):
        params = ScenarioParams(flow_count=3, warmup=0.1, grace=0.2,
                                max_update_duration=5.0, seed=7, faults="none")
        record = run_scenario(scenario, technique, params)
        assert record.digest() == FAULT_FREE_DIGESTS[
            f"scenario/{scenario}/{technique}"]


# ---------------------------------------------------------------------------
# Faulted sessions end to end
# ---------------------------------------------------------------------------

class TestFaultedSessions:
    def test_ack_loss_breaks_barrier_but_not_probing(self):
        broken = _faulted_migration("barrier", "ack-loss(probability=1.0)")
        assert not broken.completed
        assert broken.fault_events["ack-loss.acks_dropped"] > 0
        robust = _faulted_migration("general", "ack-loss(probability=1.0)")
        assert robust.completed

    def test_fault_events_serialize_and_round_trip(self):
        record = _faulted_migration("barrier", "ack-loss(probability=1.0)")
        payload = record.as_dict()
        assert payload["fault_events"] == record.fault_events
        rebuilt = RunRecord.from_dict(json.loads(json.dumps(payload)))
        assert rebuilt == record
        assert rebuilt.digest() == record.digest()
        assert record.summary()["faults"] == record.fault_events

    def test_faults_encoded_in_session_spec_config(self):
        spec = migration_session("barrier", _migration_params())
        spec.faults = FaultPlan.from_string("ack-loss(probability=0.5)@S2")
        encoded = spec.config()["faults"]
        assert encoded == "ack-loss(probability=0.5)@S2"
        assert FaultPlan.from_string(encoded) == spec.faults

    def test_faulted_run_is_deterministic(self):
        first = _faulted_migration(
            "general", "delay-spike(probability=0.5,spike=0.5)")
        second = _faulted_migration(
            "general", "delay-spike(probability=0.5,spike=0.5)")
        assert first.digest() == second.digest()
        assert first.fault_events == second.fault_events

    def test_switch_crash_causes_persistent_loss(self):
        record = _faulted_migration(
            "general", "switch-crash(at=0.3,restart_after=0.0)", grace=0.3)
        assert record.fault_events["switch-crash.crashes"] >= 1
        assert record.dropped_packets > 0


# ---------------------------------------------------------------------------
# Scenario and campaign integration
# ---------------------------------------------------------------------------

class TestFaultSweepScenario:
    def test_registered_and_armed_by_default(self):
        record = run_scenario(
            "fault-sweep", "general",
            ScenarioParams(flow_count=2, warmup=0.1, grace=0.2,
                           max_update_duration=5.0, seed=7))
        assert record.scenario == "fault-sweep"
        assert record.metrics["fault_plan"] != "none"
        assert "diverged_switches" in record.metrics

    def test_explicit_none_is_fault_free(self):
        record = run_scenario(
            "fault-sweep", "general",
            ScenarioParams(flow_count=2, warmup=0.1, grace=0.2,
                           max_update_duration=5.0, seed=7, faults="none"))
        assert record.fault_events == {}
        assert record.metrics["fault_plan"] == "none"

    def test_params_faults_overrides_the_default_mix(self):
        record = run_scenario(
            "fault-sweep", "barrier",
            ScenarioParams(flow_count=2, warmup=0.1, grace=0.2,
                           max_update_duration=2.0, seed=7,
                           faults="ack-loss(probability=1.0)"))
        assert record.metrics["fault_plan"] == "ack-loss(probability=1.0)"
        assert not record.completed


class TestFaultCampaign:
    def _spec(self, faults):
        return CampaignSpec(scenarios=["fault-sweep"],
                            techniques=["barrier", "general"],
                            scales=[1], seeds=[1], flow_count=2,
                            max_update_duration=5.0, faults=faults)

    def test_fault_axis_expands_and_hashes(self):
        spec = self._spec(["none", "ack-loss(probability=0.5)"])
        cells = spec.cells()
        assert len(cells) == 4
        assert len({cell.cell_id for cell in cells}) == 4
        faulted = [cell for cell in cells if cell.fault != "none"]
        assert all("fault=" in cell.describe() for cell in faulted)

    def test_fault_free_cell_ids_match_pre_fault_axis_hashes(self):
        # Resume compatibility: a results file written before the fault axis
        # existed must still be recognised, so fault-free configs hash
        # without any "fault" key.  The id below was captured on the
        # pre-fault-subsystem code for this exact cell.
        from repro.campaign import CampaignCell

        cell = CampaignCell("path-migration", "barrier")
        assert "fault" not in cell.config()
        assert cell.cell_id == "abe6055f0c2df93f"
        faulted = self._spec(["ack-loss(probability=0.5)"]).cells()[0]
        assert faulted.config()["fault"] == "ack-loss(probability=0.5)"

    def test_validate_rejects_bad_fault_axis(self):
        with pytest.raises(ValueError, match="bad fault axis"):
            self._spec(["gremlin(count=1)"]).validate()
        with pytest.raises(ValueError, match="bad fault axis"):
            self._spec(["ack-loss(probability=1.5)"]).validate()
        # Non-numeric parameter values surface as the same friendly error,
        # not a TypeError traceback from the model's range checks.
        with pytest.raises(ValueError, match="bad fault axis"):
            self._spec(["ack-loss(probability=oops)"]).validate()
        with pytest.raises(ValueError, match="bad fault axis"):
            self._spec(["switch-crash(at=nan)"]).validate()
        with pytest.raises(ValueError, match="empty"):
            self._spec([]).validate()

    def test_run_cell_carries_fault_results(self):
        spec = self._spec(["ack-loss(probability=1.0)"])
        records = [run_cell(cell) for cell in spec.cells()]
        by_technique = {record["technique"]: record for record in records}
        assert by_technique["barrier"]["status"] == "incomplete"
        assert by_technique["barrier"]["faults"]["ack-loss.acks_dropped"] > 0
        assert by_technique["general"]["status"] == "ok"
        assert by_technique["general"]["config"]["fault"] == "ack-loss(probability=1.0)"

    def test_aggregate_groups_by_fault(self):
        from repro.campaign.report import aggregate

        spec = self._spec(["none", "ack-loss(probability=1.0)"])
        records = [run_cell(cell) for cell in spec.cells()]
        rows = aggregate([r for r in records if r["status"] == "ok"])
        # Faulted and control cells must not merge into one row; every
        # group here holds a single cell, so its digest count is 1.
        assert all(row[3] == 1 and row[-1] == 1 for row in rows)
        assert {(row[1], row[2]) for row in rows} >= {
            ("general", "none"), ("general", "ack-loss(probability=1.0)")}

    def test_resilience_report(self, tmp_path):
        spec = self._spec(["none", "ack-loss(probability=1.0)"])
        records = [run_cell(cell) for cell in spec.cells()]
        assert has_fault_axis(records)
        rows = resilience(records)
        # (2 fault labels) x (2 techniques), incomplete runs included.
        assert len(rows) == 4
        by_group = {(row[0], row[1]): row for row in rows}
        assert by_group[("ack-loss(probability=1.0)", "barrier")][3] == "0/1"
        assert by_group[("none", "barrier")][3] == "1/1"

        results = tmp_path / "results.jsonl"
        with results.open("w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record) + "\n")
        # A fault axis puts the table into the campaign report.
        text = render_report(results)
        assert "ack-loss(probability=1.0)" in text
        assert "correctness under fault" in text
        assert "Resilience — correctness under fault" in text
