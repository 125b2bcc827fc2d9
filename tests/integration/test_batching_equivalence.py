"""Link packet-train batching must not change any measured result.

The coalesced delivery path advances the clock to each packet's exact
delivery timestamp, so a full experiment must produce byte-identical flow
statistics with batching on and off — same deliveries, same times, same
drops.  The fig7 run exercises the whole stack: traffic, switches, RUM
probing, and the plan executor.
"""

import pytest

import repro.net.link as link_mod
from repro.experiments.common import EndToEndParams
from repro.experiments.fig7_probing import run_fig7
from repro.net.network import Network
from repro.net.topology import triangle_topology
from repro.scenarios import ScenarioParams, run_scenario
from repro.sim.kernel import Simulator


@pytest.fixture
def batching_default():
    original = link_mod.TRAIN_BATCHING_DEFAULT
    yield
    link_mod.TRAIN_BATCHING_DEFAULT = original


def _fig7_snapshot(batching: bool):
    link_mod.TRAIN_BATCHING_DEFAULT = batching
    result = run_fig7(EndToEndParams(flow_count=6))
    return {
        name: (
            res.dropped_packets,
            res.update_duration,
            tuple(
                (stat.flow_id, stat.last_old_path, stat.first_new_path,
                 stat.broken_time, stat.packets_sent, stat.packets_received)
                for stat in res.stats
            ),
        )
        for name, res in result.results.items()
    }


def test_fig7_flow_stats_identical_with_batching_on_and_off(batching_default):
    batched = _fig7_snapshot(True)
    unbatched = _fig7_snapshot(False)
    # Byte-identical: every delivery time, drop count and update duration.
    assert batched == unbatched


def _hardware_fat_tree_record(batching: bool, technique: str):
    link_mod.TRAIN_BATCHING_DEFAULT = batching
    record = run_scenario(
        "path-migration", technique,
        ScenarioParams(topology="fat-tree", flow_count=6, rate_pps=200.0,
                       hardware_fraction=1.0, max_update_duration=5.0))
    return record.as_dict()


@pytest.mark.parametrize("technique", ["barrier", "sequential"])
def test_rate_limited_hardware_stats_identical_with_batching_on_and_off(
        batching_default, technique):
    # Every switch is RATE_LIMITED hardware.  Their idle sync loops no longer
    # keep a poll in the heap every 0.94 ms, so ``_flush_train`` advances
    # inline where it used to hand control back to the kernel — the path that
    # must stay exact.
    batched = _hardware_fat_tree_record(True, technique)
    unbatched = _hardware_fat_tree_record(False, technique)
    assert batched["completed"] and batched["stats"]
    assert batched == unbatched


def test_network_flag_overrides_module_default(batching_default):
    link_mod.TRAIN_BATCHING_DEFAULT = True
    sim = Simulator()
    network = Network(sim, triangle_topology(), link_batching=False)
    assert all(not link.batching for link in network.links)
    network_default = Network(Simulator(), triangle_topology())
    assert all(link.batching for link in network_default.links)


class _Recorder:
    """Minimal PacketSink recording (time, packet) arrivals."""

    def __init__(self, sim, name):
        self.sim = sim
        self.name = name
        self.arrivals = []

    def receive_packet(self, packet, in_port):
        self.arrivals.append((self.sim.now, packet.packet_id, in_port))


def _burst_arrivals(batching: bool):
    from repro.net.link import Link
    from repro.packet.packet import make_ip_packet

    sim = Simulator()
    sender = _Recorder(sim, "sender")
    receiver = _Recorder(sim, "receiver")
    link = Link(sim, sender, 1, receiver, 2, latency=1e-4,
                bandwidth_bps=1e9, batching=batching)
    packets = [make_ip_packet("10.0.0.1", "10.0.0.2", sequence=index)
               for index in range(20)]

    def burst():
        for packet in packets:
            link.transmit_from(sender, packet)
        yield 0.0

    sim.process(burst())
    sim.run()
    return sim, link, [(round(t, 12), port) for t, _pid, port in receiver.arrivals]


def test_receiver_exception_does_not_wedge_the_train():
    from repro.net.link import Link
    from repro.packet.packet import make_ip_packet
    from repro.sim.kernel import StopSimulation

    sim = Simulator()
    sender = _Recorder(sim, "sender")

    class Stopper(_Recorder):
        def receive_packet(self, packet, in_port):
            super().receive_packet(packet, in_port)
            if len(self.arrivals) == 3:
                raise StopSimulation

    receiver = Stopper(sim, "receiver")
    link = Link(sim, sender, 1, receiver, 2, latency=1e-4,
                bandwidth_bps=1e9, batching=True)
    for index in range(10):
        link.transmit_from(
            sender, make_ip_packet("10.0.0.1", "10.0.0.2", sequence=index))
    sim.run()
    assert len(receiver.arrivals) == 3  # stopped mid-train
    # The remaining deliveries survive the exception: a second run drains
    # them, and new transmissions keep flowing afterwards.
    sim.run()
    assert len(receiver.arrivals) == 10
    link.transmit_from(
        sender, make_ip_packet("10.0.0.1", "10.0.0.2", sequence=10))
    sim.run()
    assert len(receiver.arrivals) == 11


def test_burst_coalesces_into_train_with_exact_timestamps():
    sim_batched, link_batched, batched = _burst_arrivals(True)
    _sim, link_unbatched, unbatched = _burst_arrivals(False)
    assert batched == unbatched          # identical per-packet delivery times
    assert len(batched) == 20
    assert link_batched.events_coalesced > 0
    assert link_unbatched.events_coalesced == 0
    # The batched kernel executed fewer callbacks than one-per-packet.
    assert sim_batched.steps_executed < 20
