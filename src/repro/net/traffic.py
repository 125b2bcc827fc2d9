"""Traffic generation.

The paper's end-to-end experiment sends 300 IP flows between two hosts at
250 packets per second each (one packet every 4 ms — that is also the
measurement precision quoted for Figure 1b).  :class:`FlowSpec` describes one
such flow; :class:`TrafficGenerator` sends each of them at its constant rate
from the source host.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappush
from typing import List, Optional

from repro.net.host import Host
from repro.packet.fields import IP_PROTO_UDP
from repro.packet.packet import Packet, make_ip_packet
from repro.sim.kernel import Simulator
from repro.sim.rng import SeededRandom


@dataclass
class FlowSpec:
    """Description of one constant-rate application flow."""

    flow_id: str
    source: Host
    destination: Host
    ip_src: str
    ip_dst: str
    rate_pps: float = 250.0
    tp_src: int = 10000
    tp_dst: int = 80
    ip_proto: int = IP_PROTO_UDP
    payload_size: int = 100
    start_time: float = 0.0
    stop_time: Optional[float] = None

    @property
    def interval(self) -> float:
        """Spacing between consecutive packets of the flow."""
        if not self.rate_pps > 0:  # a NaN rate fails this too
            raise ValueError(f"flow {self.flow_id} has non-positive rate")
        return 1.0 / self.rate_pps


def flows_between(
    source: Host,
    destination: Host,
    count: int,
    *,
    rate_pps: float = 250.0,
    base_src: str = "10.0.0.0",
    base_dst: str = "10.0.128.0",
    start_time: float = 0.0,
    stop_time: Optional[float] = None,
    flow_prefix: str = "flow",
) -> List[FlowSpec]:
    """Create ``count`` flows between two hosts with distinct IP pairs.

    Flow *i* uses source ``base_src + i + 1`` and destination
    ``base_dst + i + 1`` so each flow is matched by a dedicated pair of
    forwarding rules, mirroring the per-flow paths preinstalled in the paper's
    experiment.
    """
    from repro.packet.addresses import int_to_ip, ip_to_int

    flows = []
    src_base = ip_to_int(base_src)
    dst_base = ip_to_int(base_dst)
    for index in range(count):
        flows.append(
            FlowSpec(
                flow_id=f"{flow_prefix}-{index:04d}",
                source=source,
                destination=destination,
                ip_src=int_to_ip(src_base + index + 1),
                ip_dst=int_to_ip(dst_base + index + 1),
                rate_pps=rate_pps,
                tp_dst=80,
                start_time=start_time,
                stop_time=stop_time,
            )
        )
    return flows


class TrafficGenerator:
    """Sends a set of constant-rate flows, one callback chain per flow.

    There is no process: :meth:`start` schedules a zero-delay ``_begin`` per
    flow, which stamps the flow's header template and waits out its start
    offset; ``_emit`` sends one packet and pushes its own next heap entry one
    ``interval`` later — one entry per generated packet, carrying the flow's
    state (headers, next sequence number) and going straight to
    :meth:`Host.send <repro.net.host.Host.send>`.
    """

    def __init__(
        self,
        sim: Simulator,
        flows: List[FlowSpec],
        rng: Optional[SeededRandom] = None,
    ) -> None:
        self.sim = sim
        self.flows = list(flows)
        self.rng = rng or SeededRandom(42)
        self._started = False

    def start(self) -> None:
        """Start sending every flow, each at its own offset inside one
        inter-packet interval so they do not all fire in the same instant."""
        if self._started:
            return
        self._started = True
        for flow in self.flows:
            self.sim.schedule_callback(0.0, self._begin, flow,
                                       self.rng.uniform(0.0, flow.interval))

    def _begin(self, flow: FlowSpec, offset: float) -> None:
        # All packets of a flow share the same headers: build them once and
        # stamp copies per packet instead of re-parsing addresses every 4 ms.
        template = make_ip_packet(
            flow.ip_src,
            flow.ip_dst,
            eth_src=flow.source.mac,
            eth_dst=flow.destination.mac,
            ip_proto=flow.ip_proto,
            tp_src=flow.tp_src,
            tp_dst=flow.tp_dst,
            payload_size=flow.payload_size,
            flow_id=flow.flow_id,
        )
        self.sim.schedule_callback(
            max(0.0, flow.start_time + offset), self._emit, flow,
            template.header_values(), template.payload_size, flow.interval, 0)

    def _emit(self, flow: FlowSpec, header_values: list, payload_size: int,
              interval: float, sequence: int) -> None:
        sim = self.sim
        if flow.stop_time is not None and sim._now >= flow.stop_time:
            return
        flow.source.send(Packet.from_values(
            header_values.copy(),
            payload_size=payload_size,
            flow_id=flow.flow_id,
            created_at=sim._now,
            sequence=sequence,
        ))
        # The next emission, pushed as ``schedule_callback`` would push it
        # (``interval`` is positive: see ``FlowSpec.interval``).
        order = sim._sequence
        sim._sequence = order + 1
        heappush(sim._heap, (sim._now + interval, order, self._emit, (
            flow, header_values, payload_size, interval, sequence + 1)))

    def stop_all(self, at_time: Optional[float] = None) -> None:
        """Set a stop time on every flow (defaults to 'now')."""
        stop = at_time if at_time is not None else self.sim.now
        for flow in self.flows:
            flow.stop_time = stop
