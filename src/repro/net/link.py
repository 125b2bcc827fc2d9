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
A flush's heap entry carries the due float itself, never ``now + (t - now)``;
only the number of heap operations depends on what else is scheduled
(``tests/property/test_hop_fusion.py`` holds the links to a model that
states exactly this and knows no trains).

Everything a hop reads or writes about its direction is one slotted
:class:`_Direction` record.  The link numbers its flush entries from the
kernel's counter and pushes them itself, built at push time (a record that
kept its own entry would be a reference cycle).  A direction has one flush
entry on the heap exactly while its train is non-empty, so no flag says
whether a flush is on: ``transmit_from`` pushes one when it finds the train
empty, and a flush that stops with packets left pushes itself back.  Nothing
appends to a train while its flush runs, because a receiver never sends on
the direction it is being delivered from.  No ``schedule_at`` checks
``due >= now``; it holds by construction: the constructor rejects a NaN or
negative latency and a NaN or non-positive bandwidth, and an ingress delay
is zero (a host) or a validated ``forwarding_latency``.

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
from heapq import heappush
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


class _Direction:
    """One direction of a link: the receiver's bound ``receive_packet``,
    in-port and ingress delay; when the wire is free again; and the train of
    pending ``(due, sequence, arrived_at, packet)`` deliveries (a ``None``
    sequence is taken when the flush reaches it).  A flush entry is on the
    heap exactly while the train is non-empty."""

    __slots__ = ("receive", "in_port", "ingress", "busy_until", "train")

    def __init__(self, receiver: PacketSink, in_port: int) -> None:
        self.receive = receiver.receive_packet
        self.in_port = in_port
        self.ingress = receiver.ingress_latency
        self.busy_until = 0.0
        self.train: deque = deque()


class Link:
    """A bidirectional point-to-point link."""

    __slots__ = ("sim", "node_a", "port_a", "node_b", "port_b", "latency",
                 "bandwidth_bps", "name", "_towards")

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
        if not latency >= 0:  # a NaN latency fails this too
            raise ValueError(f"latency must be >= 0, not {latency}")
        if bandwidth_bps is not None and not bandwidth_bps > 0:
            raise ValueError(f"bandwidth_bps must be > 0 or None, not {bandwidth_bps}")
        if node_a is node_b:
            raise ValueError(f"a link joins two nodes, not {node_a.name} to itself")
        self.sim = sim
        self.node_a = node_a
        self.port_a = port_a
        self.node_b = node_b
        self.port_b = port_b
        self.latency = latency
        self.bandwidth_bps = bandwidth_bps
        self.name = name or f"{node_a.name}:{port_a}<->{node_b.name}:{port_b}"
        #: ``{sender: the direction it sends on}``.
        self._towards = {node_a: _Direction(node_b, port_b),
                         node_b: _Direction(node_a, port_a)}

    def transmit_from(self, sender: PacketSink, packet: Packet) -> None:
        """Send ``packet`` from ``sender`` towards the other end.

        The link owns ``packet`` from here on — the sender must not touch it
        again — and gives it up when it hands it to the receiver.
        """
        try:
            direction = self._towards[sender]
        except KeyError:
            raise ValueError(f"{sender.name} is not attached to link {self.name}") from None
        sim = self.sim
        now = sim._now
        finish = direction.busy_until
        if finish < now:
            finish = now
        bandwidth = self.bandwidth_bps
        if bandwidth is not None:
            finish += (packet.total_size * 8) / bandwidth
        direction.busy_until = finish
        arrived_at = finish + self.latency
        due = arrived_at + direction.ingress
        train = direction.train
        if not train:
            # Nothing pending, so no flush is on: this packet's starts one.
            sequence = sim._sequence
            sim._sequence = sequence + 1
            train.append((due, sequence, arrived_at, packet))
            heappush(sim._heap, (due, sequence, self._flush_train, (direction,)))
        elif train[-1][2] > now:
            # Queued behind packets in flight: the flush takes its place.
            train.append((due, None, arrived_at, packet))
        else:
            # Nothing in flight: it takes its place now, for the flush that is on.
            sequence = sim._sequence
            sim._sequence = sequence + 1
            train.append((due, sequence, arrived_at, packet))

    def _flush_train(self, direction: _Direction) -> None:
        """Hand every due packet of ``direction``'s train to the receiver.

        Each packet is handed over at its *exact* due time: after each one
        the clock is advanced inline to the next packet's due time — but only
        when that time strictly precedes every other scheduled event and does
        not cross an active ``run(until=...)`` bound; otherwise the flush
        pushes itself back onto the heap and the kernel interleaves events in
        normal order.
        """
        train = direction.train
        sim = self.sim
        try:
            while train:
                due, _sequence, arrived_at, packet = train[0]
                if due > sim._now:
                    # ``<=``: on an exact-timestamp tie with another event
                    # the flush defers to the kernel, which runs the other
                    # event first (see the module docstring).
                    heap = sim._heap
                    if (heap and heap[0][0] <= due) or due > sim._until:
                        break  # another event (or the run bound) comes first
                    sim._now = due
                train.popleft()
                direction.receive(packet, direction.in_port, arrived_at)
        finally:
            # Deferring, or a receiver raised (e.g. StopSimulation): resume at
            # the head's due time in its place (taken now if it has none), so
            # the direction is never wedged with packets and no flush.
            if train:
                due, sequence, _arrived_at, _packet = train[0]
                if sequence is None:
                    sequence = sim._sequence
                    sim._sequence = sequence + 1
                heappush(sim._heap, (max(sim._now, due), sequence, self._flush_train,
                                     (direction,)))

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<Link {self.name} latency={self.latency * 1000:.3f}ms>"
