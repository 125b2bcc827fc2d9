"""Whole experiments against the specified hop, and the train's own mechanics.

Links coalesce back-to-back deliveries into trains and own the receiver's
ingress delay; neither may change a measured result.  The first three tests
run full experiments — traffic, switches, RUM probing, the plan executor —
with ``hop_model.Recorder`` tapping what enters and leaves each network's
data plane, and require the model's answer (``hop_model.replay``: one wire
arrival and one due time per hop, no trains, no flushes) for every delivery
time, path, PacketIn and per-switch drop count.  They once compared trains
on against trains off; the names stayed when the off switch went.
"""

import pytest

from hop_model import Recorder

from repro.experiments.common import EndToEndParams
from repro.experiments.figures import FIGURES
from repro.net.link import Link
from repro.packet.packet import make_ip_packet
from repro.scenarios import ScenarioParams, run_scenario
from repro.sim.kernel import Simulator, StopSimulation


def _packet_ins_after_matching_the_model(recorder, networks):
    assert len(recorder.recordings) == networks
    punted = 0
    for recording in recorder.recordings:
        observed = recording.observed()
        deliveries, packet_ins, _drops, received = observed
        assert len(deliveries) > 500 and len(received) >= 3
        assert observed == recording.predicted()
        punted += len(packet_ins)
    return punted


def test_fig7_flow_stats_identical_with_batching_on_and_off(monkeypatch):
    recorder = Recorder(monkeypatch)
    results = FIGURES["fig7"].run(EndToEndParams(flow_count=6))
    # Probes went up to the controller, at the modelled instants.
    assert _packet_ins_after_matching_the_model(recorder, len(results)) > 0


@pytest.mark.parametrize("technique", ["barrier", "sequential"])
def test_rate_limited_hardware_stats_identical_with_batching_on_and_off(
        monkeypatch, technique):
    # Every switch is RATE_LIMITED hardware.  Their idle sync loops keep no
    # poll in the heap, so ``_flush_train`` advances inline across most of a
    # train — the path that must stay exact.
    recorder = Recorder(monkeypatch)
    record = run_scenario(
        "path-migration", technique,
        ScenarioParams(topology="fat-tree", flow_count=6, rate_pps=200.0,
                       hardware_fraction=1.0, max_update_duration=5.0))
    assert record.completed and record.stats
    probed = _packet_ins_after_matching_the_model(recorder, 1) > 0
    assert probed == (technique == "sequential")


class _Recorder:
    """Minimal PacketSink recording (now, arrived_at, port) per hand-over."""

    ingress_latency = 2e-5

    def __init__(self, sim, name):
        self.sim = sim
        self.name = name
        self.arrivals = []

    def receive_packet(self, packet, in_port, arrived_at):
        self.arrivals.append((self.sim.now, arrived_at, in_port))


def _link(receiver_class=_Recorder):
    sim = Simulator()
    sender, receiver = _Recorder(sim, "sender"), receiver_class(sim, "receiver")
    return sim, sender, receiver, Link(sim, sender, 1, receiver, 2, latency=1e-4,
                                       bandwidth_bps=1e9)


def test_receiver_exception_does_not_wedge_the_train():
    class Stopper(_Recorder):
        def receive_packet(self, packet, in_port, arrived_at):
            super().receive_packet(packet, in_port, arrived_at)
            if len(self.arrivals) == 3:
                raise StopSimulation

    sim, sender, receiver, link = _link(Stopper)
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
    assert all(now == arrived_at + 2e-5 for now, arrived_at, _port in receiver.arrivals)


def test_burst_coalesces_into_train_with_exact_timestamps():
    sim, sender, receiver, link = _link()
    packets = [make_ip_packet("10.0.0.1", "10.0.0.2", sequence=index)
               for index in range(20)]

    def burst():
        for packet in packets:
            link.transmit_from(sender, packet)

    sim.schedule_callback(0.0, burst)
    sim.run()
    # Back to back on the wire from t = 0; each is handed over one ingress
    # delay after it left the wire, at exactly these floats.
    free, expected = 0.0, []
    for packet in packets:
        free += packet.total_size * 8 / 1e9
        expected.append((free + 1e-4 + 2e-5, free + 1e-4, 2))
    assert receiver.arrivals == expected
    # One heap entry for the whole train, plus the burst's own.  Sent from a
    # process, the burst cost two: its start and the sleep that ended it.
    assert sim.steps_executed == 2
