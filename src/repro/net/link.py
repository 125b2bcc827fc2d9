"""Point-to-point links.

A link joins two attachment points ``(node, port)``.  It delivers packets in
order after a fixed propagation latency plus a serialisation delay derived
from the configured bandwidth.  Links never drop packets — all loss in the
experiments comes from flow-table misses, which is exactly the failure mode
the paper studies.

Packet trains
-------------
High-rate traffic sends long runs of back-to-back packets down the same
link direction.  Scheduling one kernel event per packet makes the event
heap the bottleneck, so by default each direction coalesces its pending
deliveries into a *train*: one flush callback delivers consecutive packets
inline, advancing the simulation clock to each packet's exact delivery
time, as long as no other scheduled event (and no active ``run(until=...)``
bound) falls in between.  Per-packet delivery timestamps are exact, so
measured statistics match the unbatched per-packet scheduling bit for bit
(pinned by ``tests/integration/test_batching_equivalence.py``); only the
number of heap operations changes.  The single caveat: when an unrelated
event is scheduled at *exactly* a packet's delivery timestamp (float
equality), the flush conservatively defers to the kernel and the tie
resolves in kernel order rather than by the original per-packet sequence
number.  Set ``batching=False`` (or flip :data:`TRAIN_BATCHING_DEFAULT`)
to fall back to one event per packet.
"""

from __future__ import annotations

from collections import deque
from typing import Optional, Protocol

from repro.packet.packet import Packet
from repro.sim.kernel import Simulator

#: Default for :class:`Link` packet-train coalescing (on unless a link or
#: network overrides it).
TRAIN_BATCHING_DEFAULT = True


class PacketSink(Protocol):
    """Anything that can receive a packet on a port (switches and hosts)."""

    name: str

    def receive_packet(self, packet: Packet, in_port: int) -> None:
        """Handle an arriving packet."""


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
        "batching",
        "packets_carried",
        "bytes_carried",
        "events_coalesced",
        "_busy_until",
        "_trains",
        "_flush_scheduled",
        "_receivers",
        "_in_ports",
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
        batching: Optional[bool] = None,
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
        self.batching = TRAIN_BATCHING_DEFAULT if batching is None else batching
        self.packets_carried = 0
        self.bytes_carried = 0
        #: Kernel callbacks saved by train coalescing (diagnostics).
        self.events_coalesced = 0
        # Per-direction time at which the link is free again (serialisation).
        self._busy_until = [0.0, 0.0]
        # Per-direction pending (deliver_at, packet) trains and whether a
        # flush callback is currently scheduled for the direction.
        self._trains = (deque(), deque())
        self._flush_scheduled = [False, False]
        # Direction 0 delivers to node_b, direction 1 to node_a.
        self._receivers = (node_b, node_a)
        self._in_ports = (port_b, port_a)

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
        size = packet.total_size
        self.packets_carried += 1
        self.bytes_carried += size
        sim = self.sim
        now = sim._now
        busy = self._busy_until[direction]
        finish = busy if busy > now else now
        if self.bandwidth_bps:
            finish += (size * 8) / self.bandwidth_bps
        self._busy_until[direction] = finish
        deliver_at = finish + self.latency
        if not self.batching:
            sim.schedule_callback(
                deliver_at - now,
                self._receivers[direction].receive_packet,
                packet,
                self._in_ports[direction],
            )
            return
        self._trains[direction].append((deliver_at, packet))
        if not self._flush_scheduled[direction]:
            self._flush_scheduled[direction] = True
            sim.schedule_callback(deliver_at - now, self._flush_train, direction)

    def _flush_train(self, direction: int) -> None:
        """Deliver every due packet of ``direction``'s train.

        Packets are handed to the receiver at their *exact* per-packet
        delivery time: after each delivery the clock is advanced inline to
        the next packet's timestamp — but only when that timestamp strictly
        precedes every other scheduled event and does not cross an active
        ``run(until=...)`` bound; otherwise the flush re-schedules itself
        and the kernel interleaves events in normal order.
        """
        train = self._trains[direction]
        sim = self.sim
        receiver = self._receivers[direction]
        in_port = self._in_ports[direction]
        receive = receiver.receive_packet
        heap = sim._heap
        try:
            while train:
                deliver_at, packet = train[0]
                if deliver_at > sim._now:
                    until = sim._until
                    # ``<=``: on an exact-timestamp tie with another event
                    # the flush defers to the kernel, which runs the other
                    # event first (unbatched mode would deliver first, the
                    # delivery event's sequence number being older) — the
                    # one place coalescing can reorder float-equal ties.
                    if (heap and heap[0][0] <= deliver_at) or (
                            until is not None and deliver_at > until):
                        # Another event (or the run bound) comes first: hand
                        # control back to the kernel and resume at deliver_at.
                        sim.schedule_callback(deliver_at - sim._now,
                                              self._flush_train, direction)
                        return
                    sim._advance_inline(deliver_at)
                    self.events_coalesced += 1
                train.popleft()
                receive(packet, in_port)
            self._flush_scheduled[direction] = False
        except BaseException:
            # A receiver raised (e.g. StopSimulation stopping the run):
            # keep the remaining deliveries alive for the next run() call
            # instead of wedging the direction with no flush scheduled.
            if train:
                sim.schedule_callback(max(0.0, train[0][0] - sim._now),
                                      self._flush_train, direction)
            else:
                self._flush_scheduled[direction] = False
            raise

    def other_end(self, node: PacketSink) -> PacketSink:
        """The node on the opposite side of ``node``."""
        if node is self.node_a:
            return self.node_b
        if node is self.node_b:
            return self.node_a
        raise ValueError(f"{node.name} is not attached to link {self.name}")

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<Link {self.name} latency={self.latency * 1000:.3f}ms>"
