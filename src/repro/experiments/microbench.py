"""Section 5.2 (in-text) — switch PacketOut / PacketIn micro-benchmarks.

Three measurements on the hardware switch model:

* sustained PacketOut rate (paper: ~7006 messages/s),
* sustained PacketIn rate (paper: ~5531 messages/s),
* interference of PacketIn / PacketOut processing with concurrent rule
  modifications (paper: PacketIn keeps >= 96 % of the modification rate;
  PacketOut at a 5:1 ratio costs at most ~13 %).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional

from repro.analysis.report import format_table
from repro.controller.base import AckMode, Controller
from repro.net.network import Network
from repro.net.topology import triangle_topology
from repro.net.traffic import FlowSpec, TrafficGenerator
from repro.openflow.actions import ControllerAction, OutputAction
from repro.openflow.match import Match
from repro.openflow.messages import FlowMod, PacketOut
from repro.packet.addresses import int_to_ip, ip_to_int
from repro.packet.packet import make_ip_packet
from repro.sim.kernel import Simulator
from repro.switches.profiles import SwitchProfile, hp5406zl_profile


@dataclass
class MicrobenchParams:
    """Scale of the micro-benchmarks."""

    packet_out_count: int = 2000
    packet_in_duration: float = 1.0
    flowmod_count: int = 400
    packet_out_ratio: int = 5
    hardware_profile: Optional[SwitchProfile] = None
    seed: int = 23

    @classmethod
    def paper(cls) -> "MicrobenchParams":
        """The paper's scale (20 000 PacketOut messages)."""
        return cls(packet_out_count=20000, packet_in_duration=2.0, flowmod_count=1000)


def _build(params: MicrobenchParams):
    sim = Simulator()
    network = Network(
        sim,
        triangle_topology(hardware_profile=params.hardware_profile or hp5406zl_profile()),
        seed=params.seed,
    )
    controller = Controller(sim, ack_mode=AckMode.NONE)
    for name in network.switch_names():
        controller.connect_switch(name, network.controller_endpoint(name))
    network.start()
    return sim, network, controller


def _sustained_rate(times: List[float]) -> float:
    """Events per second between the first and the last of sorted ``times``."""
    if len(times) < 2:
        return 0.0
    return (len(times) - 1) / (times[-1] - times[0])


def measure_packet_out_rate(params: MicrobenchParams) -> float:
    """Sustained PacketOut rate of the hardware switch (packets/second)."""
    sim, network, controller = _build(params)
    sink_ip = "10.0.128.200"
    network.switch("S3").install_rule_directly(
        FlowMod(Match(ip_dst=sink_ip),
                [OutputAction(network.port_between("S3", "H2"))], priority=500)
    )
    out_port = network.port_between("S2", "S3")
    for index in range(params.packet_out_count):
        packet = make_ip_packet("10.0.200.1", sink_ip, flow_id=f"pout-{index:05d}",
                                created_at=0.0, sequence=index)
        controller.send_packet_out("S2", PacketOut(packet, [OutputAction(out_port)]))
    sim.run(until=max(2.0, params.packet_out_count / 1000.0))
    monitor = network.monitor
    return _sustained_rate(sorted(
        record.received_at
        for flow_id in monitor.delivered_flows()
        for record in monitor.deliveries(flow_id)
        if flow_id.startswith("pout-")
    ))


def _packet_in_load(sim: Simulator, network: Network, flow_count: int,
                    rate_pps: float) -> None:
    """Start traffic that S1 forwards to S2 and S2 punts to the controller."""
    prefix = Match(ip_src=("10.3.0.0", 16))
    network.switch("S2").install_rule_directly(
        FlowMod(prefix, [ControllerAction()], priority=500)
    )
    network.switch("S1").install_rule_directly(
        FlowMod(prefix, [OutputAction(network.port_between("S1", "S2"))], priority=500)
    )
    flows = [
        FlowSpec(
            flow_id=f"pin-{index}",
            source=network.host("H1"),
            destination=network.host("H2"),
            ip_src=int_to_ip(ip_to_int("10.3.0.1") + index),
            ip_dst="10.0.128.99",
            rate_pps=rate_pps,
        )
        for index in range(flow_count)
    ]
    TrafficGenerator(sim, flows).start()


def measure_packet_in_rate(params: MicrobenchParams) -> float:
    """Sustained PacketIn rate of the hardware switch (messages/second)."""
    sim, network, controller = _build(params)
    received: List[float] = []
    controller.on_packet_in(lambda _switch, _message: received.append(sim.now))
    _packet_in_load(sim, network, flow_count=8, rate_pps=1500.0)
    sim.run(until=params.packet_in_duration)
    return _sustained_rate(received)


def measure_flowmod_rate(params: MicrobenchParams, load: Optional[str] = None) -> float:
    """Rule modification completion rate, optionally under concurrent
    ``"PacketIn"`` or ``"PacketOut"`` load."""
    sim, network, controller = _build(params)
    switch = network.switch("S2")
    if load == "PacketIn":
        _packet_in_load(sim, network, flow_count=4, rate_pps=400.0)
    packet_out_ratio = params.packet_out_ratio if load == "PacketOut" else 0

    out_port = network.port_between("S2", "S3")
    src_base = ip_to_int("10.6.0.0")
    for index in range(params.flowmod_count):
        flowmod = FlowMod(
            Match(ip_src=int_to_ip(src_base + index + 1), ip_dst="10.0.128.50"),
            [OutputAction(out_port)],
            priority=100,
        )
        controller.send("S2", flowmod)
        for copy in range(packet_out_ratio):
            packet = make_ip_packet("10.0.200.1", "10.0.128.200",
                                    flow_id=None, sequence=copy)
            controller.send_packet_out("S2", PacketOut(packet, [OutputAction(out_port)]))
    sim.run(until=max(5.0, params.flowmod_count / 50.0))
    return _sustained_rate(sorted(switch.controlplane.control_apply_log.values()))


#: The five runs behind the section's numbers, by name: ``measure(params)``
#: returns a rate per second.
MEASUREMENTS: Dict[str, Callable[[MicrobenchParams], float]] = {
    "PacketOut": measure_packet_out_rate,
    "PacketIn": measure_packet_in_rate,
    "FlowMod": measure_flowmod_rate,
    "FlowMod under PacketIn load": partial(measure_flowmod_rate, load="PacketIn"),
    "FlowMod under PacketOut load": partial(measure_flowmod_rate, load="PacketOut"),
}


def measure(name: str, params: MicrobenchParams) -> float:
    """Run one of :data:`MEASUREMENTS`."""
    return MEASUREMENTS[name](params)


def kept_under(rates: Dict[str, float], load: str) -> float:
    """Fraction of the baseline modification rate kept under ``load``."""
    baseline = rates["FlowMod"]
    return rates[f"FlowMod under {load} load"] / baseline if baseline > 0 else 0.0


def render(rates: Dict[str, float]) -> str:
    """Text rendering of ``{measurement name: rate}`` next to the paper's numbers."""
    rows = [
        ["PacketOut rate", f"{rates['PacketOut']:.0f} /s", "~7006 /s"],
        ["PacketIn rate", f"{rates['PacketIn']:.0f} /s", "~5531 /s"],
        ["FlowMod rate (baseline)", f"{rates['FlowMod']:.0f} /s", "200-285 /s"],
        ["kept under PacketIn load", f"{kept_under(rates, 'PacketIn') * 100:.0f}%", ">= 96%"],
        ["kept under 5:1 PacketOut load", f"{kept_under(rates, 'PacketOut') * 100:.0f}%",
         ">= 87%"],
    ]
    return format_table(
        ["measurement", "this reproduction", "paper"],
        rows,
        title="Section 5.2 micro-benchmarks",
    )
