"""End hosts.

A host has a single port, an IP and a MAC address.  Arriving packets are
reported to the :class:`~repro.net.monitor.DeliveryMonitor`; outgoing packets
are produced by the traffic generators in :mod:`repro.net.traffic`.
"""

from __future__ import annotations

from typing import Optional

from repro.net.link import Link
from repro.net.monitor import DeliveryMonitor
from repro.packet.packet import Packet
from repro.sim.kernel import Simulator


class Host:
    """A traffic source/sink attached to one switch port."""

    ingress_latency = 0.0  # a host acts on a packet the instant it leaves the wire

    def __init__(
        self,
        sim: Simulator,
        name: str,
        ip: str,
        mac: str,
        monitor: Optional[DeliveryMonitor] = None,
    ) -> None:
        self.sim = sim
        self.name = name
        self.ip = ip
        self.mac = mac
        self.monitor = monitor
        self._link: Optional[Link] = None

    # -- wiring ---------------------------------------------------------------
    def attach_link(self, link: Link) -> None:
        """Attach the host's single uplink."""
        if self._link is not None:
            raise ValueError(f"host {self.name} already has a link")
        self._link = link

    # -- traffic -----------------------------------------------------------------
    def send(self, packet: Packet) -> None:
        """Transmit ``packet`` on the uplink and record it with the monitor."""
        packet.trace = packet.trace[self.name]
        if self.monitor is not None and packet.flow_id is not None and not packet.is_probe:
            self.monitor.record_sent(packet.flow_id)
        self._link.transmit_from(self, packet)

    def receive_packet(self, packet: Packet, in_port: int, arrived_at: float) -> None:
        """Handle a packet that just left the wire: record the delivery and its
        path (the interned path tuple of the packet's trace, see
        :class:`~repro.packet.packet.PathNode`)."""
        packet.trace = trace = packet.trace[self.name]
        monitor = self.monitor
        if monitor is None:
            return
        if packet.is_probe:
            monitor.record_probe(arrived_at, trace.names)
            return
        monitor.record_delivery(packet.flow_id, packet.created_at, arrived_at,
                                packet.sequence, trace.names)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<Host {self.name} ip={self.ip}>"
