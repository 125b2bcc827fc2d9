"""Point-to-point links.

A link joins two attachment points ``(node, port)``.  It delivers packets in
order after a fixed propagation latency plus a serialisation delay derived
from the configured bandwidth.  Links never drop packets — all loss in the
experiments comes from flow-table misses, which is exactly the failure mode
the paper studies.

Due times
---------
A packet leaves the wire at ``arrived_at = max(now, link free) +
8·size/bandwidth + latency``.  The receiver then spends a constant ingress
delay before it acts (a switch's ``profile.forwarding_latency``; a host's is
zero), and that delay belongs to the link's schedule, not to a second kernel
event: the packet is *due* at ``arrived_at + ingress`` and at that instant
the link calls ``receiver.receive_packet(packet, in_port, arrived_at)``.
What matters as of the wire arrival (were the receiver's ports dark?) the
receiver judges at the carried ``arrived_at``; everything else at the due
time, which is *now*.

Packet trains
-------------
High-rate traffic sends long runs of back-to-back packets down the same
link direction.  Scheduling one kernel event per packet makes the event
heap the bottleneck, so each direction coalesces its pending deliveries into
a *train*: one flush callback delivers consecutive packets inline, advancing
the simulation clock to each packet's exact due time, as long as no other
scheduled event (and no active ``run(until=...)`` bound) falls in between.
Flushes are scheduled with ``schedule_at``, so every timestamp is the float
computed above, never ``now + (t - now)``; only the number of heap
operations depends on what else is scheduled
(``tests/property/test_hop_fusion.py`` holds the links to a model that
states exactly this and knows no trains).

Same-instant order.  A packet takes its place among events of the same
instant — its heap sequence number — when it is *transmitted*, if nothing of
its direction is still on the wire then (earlier packets may still be
waiting out the ingress delay in the train); a packet that queues behind
in-flight ones takes it when the flush reaches it.  Those are the moments a
wire-arrival event would have been pushed, so hops that tie on their due
float run in the order a separate arrival event per packet gave them.  Two
orders can still differ from that: an unrelated event at *exactly* a packet's
due float (float equality) that was scheduled during the flight or the
ingress delay now runs after the hop, not before it; and a flush that defers
to the kernel on such a tie (``<=`` below) resumes in kernel order, not in
the order the packets were sent.
"""

from __future__ import annotations

from collections import deque
from typing import Optional, Protocol

from repro.packet.packet import Packet
from repro.sim.kernel import Simulator


class PacketSink(Protocol):
    """Anything that can receive a packet on a port (switches and hosts)."""

    name: str
    #: Constant delay between a packet's wire arrival and the sink acting on it.
    ingress_latency: float

    def receive_packet(self, packet: Packet, in_port: int, arrived_at: float) -> None:
        """Handle a packet that left the wire ``ingress_latency`` ago."""


class Link:
    """A bidirectional point-to-point link."""

    __slots__ = (
        "sim",
        "node_a",
        "port_a",
        "node_b",
        "port_b",
        "latency",
        "bandwidth_bps",
        "name",
        "packets_carried",
        "_busy_until",
        "_trains",
        "_flush_scheduled",
        "_receivers",
        "_in_ports",
        "_ingress",
    )

    def __init__(
        self,
        sim: Simulator,
        node_a: PacketSink,
        port_a: int,
        node_b: PacketSink,
        port_b: int,
        latency: float = 0.0001,
        bandwidth_bps: Optional[float] = 1e9,
        name: str = "",
    ) -> None:
        if latency < 0:
            raise ValueError("latency must be >= 0")
        self.sim = sim
        self.node_a = node_a
        self.port_a = port_a
        self.node_b = node_b
        self.port_b = port_b
        self.latency = latency
        self.bandwidth_bps = bandwidth_bps
        self.name = name or f"{node_a.name}:{port_a}<->{node_b.name}:{port_b}"
        self.packets_carried = 0
        # Per-direction time at which the link is free again (serialisation).
        self._busy_until = [0.0, 0.0]
        # Per-direction pending (due, sequence, arrived_at, packet) trains and
        # whether a flush callback is currently scheduled for the direction.
        self._trains = (deque(), deque())
        self._flush_scheduled = [False, False]
        # Direction 0 delivers to node_b, direction 1 to node_a.
        self._receivers = (node_b, node_a)
        self._in_ports = (port_b, port_a)
        self._ingress = (node_b.ingress_latency, node_a.ingress_latency)

    def transmit_from(self, sender: PacketSink, packet: Packet) -> None:
        """Send ``packet`` from ``sender`` towards the other end.

        The link owns ``packet`` from here on — the sender must not touch it
        again — and gives it up when it hands it to the receiver.
        """
        if sender is self.node_a:
            direction = 0
        elif sender is self.node_b:
            direction = 1
        else:
            raise ValueError(f"{sender.name} is not attached to link {self.name}")
        self.packets_carried += 1
        sim = self.sim
        now = sim._now
        busy = self._busy_until[direction]
        finish = busy if busy > now else now
        if self.bandwidth_bps:
            finish += (packet.total_size * 8) / self.bandwidth_bps
        self._busy_until[direction] = finish
        arrived_at = finish + self.latency
        due = arrived_at + self._ingress[direction]
        train = self._trains[direction]
        sequence = None  # queued behind packets in flight: taken by the flush
        if not train or train[-1][2] <= now:
            sequence = sim._sequence
            sim._sequence = sequence + 1
        train.append((due, sequence, arrived_at, packet))
        if not self._flush_scheduled[direction]:
            self._flush_scheduled[direction] = True
            sim.schedule_at(due, self._flush_train, direction, sequence=sequence)

    def _flush_train(self, direction: int) -> None:
        """Hand every due packet of ``direction``'s train to the receiver.

        Each packet is handed over at its *exact* due time: after each one
        the clock is advanced inline to the next packet's due time — but only
        when that time strictly precedes every other scheduled event and does
        not cross an active ``run(until=...)`` bound; otherwise the flush
        re-schedules itself and the kernel interleaves events in normal order.
        """
        train = self._trains[direction]
        sim = self.sim
        receiver = self._receivers[direction]
        in_port = self._in_ports[direction]
        receive = receiver.receive_packet
        heap = sim._heap
        try:
            while train:
                due, sequence, arrived_at, packet = train[0]
                if due > sim._now:
                    until = sim._until
                    # ``<=``: on an exact-timestamp tie with another event
                    # the flush defers to the kernel, which runs the other
                    # event first (see the module docstring).
                    if (heap and heap[0][0] <= due) or (
                            until is not None and due > until):
                        # Another event (or the run bound) comes first: hand
                        # control back to the kernel and resume at ``due``.
                        sim.schedule_at(due, self._flush_train, direction,
                                        sequence=sequence)
                        return
                    sim._now = due
                train.popleft()
                receive(packet, in_port, arrived_at)
            self._flush_scheduled[direction] = False
        except BaseException:
            # A receiver raised (e.g. StopSimulation stopping the run):
            # keep the remaining deliveries alive for the next run() call
            # instead of wedging the direction with no flush scheduled.
            if train:
                sim.schedule_at(max(sim._now, train[0][0]), self._flush_train,
                                direction, sequence=train[0][1])
            else:
                self._flush_scheduled[direction] = False
            raise

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<Link {self.name} latency={self.latency * 1000:.3f}ms>"
