"""Delivery monitoring.

The monitor is the measurement instrument of the end-to-end experiments: for
every flow it records when each packet was sent and when (and via which
switch path) it arrived at its destination.  The analysis layer turns these
records into the quantities the paper plots — per-flow broken time
(Figure 1b), old-path/new-path switchover times (Figures 6 and 7) and
data-plane activation times (Figure 8).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple


@dataclass
class DeliveryRecord:
    """One packet arrival at its destination host."""

    flow_id: str
    sent_at: float
    received_at: float
    sequence: int
    path: Tuple[str, ...]

    @property
    def latency(self) -> float:
        """One-way delay experienced by the packet."""
        return self.received_at - self.sent_at


class DeliveryMonitor:
    """Collects per-flow send and delivery events."""

    def __init__(self) -> None:
        self._sent: Dict[str, List[Tuple[float, int]]] = defaultdict(list)
        self._received: Dict[str, List[DeliveryRecord]] = defaultdict(list)
        self.probe_arrivals: List[Tuple[float, Tuple[str, ...]]] = []

    # -- recording -------------------------------------------------------------
    def record_sent(self, flow_id: str, time: float, sequence: int) -> None:
        """Register a packet handed to the network by its source host."""
        self._sent[flow_id].append((time, sequence))

    def record_delivery(self, flow_id: Optional[str], record: DeliveryRecord) -> None:
        """Register a packet arriving at its destination host."""
        if flow_id is None:
            return
        self._received[flow_id].append(record)

    def record_probe(self, time: float, path: Tuple[str, ...]) -> None:
        """Register a RUM probe packet reaching a host (diagnostics only)."""
        self.probe_arrivals.append((time, path))

    # -- per-flow queries ----------------------------------------------------------
    def flows(self) -> List[str]:
        """All flow ids that sent at least one packet."""
        return sorted(self._sent.keys())

    def delivered_flows(self) -> List[str]:
        """All flow ids with at least one delivery (includes controller-injected
        packets that were never registered as sent by a host)."""
        return sorted(self._received.keys())

    def sent_count(self, flow_id: str) -> int:
        """Packets sent by ``flow_id``."""
        return len(self._sent.get(flow_id, ()))

    def received_count(self, flow_id: str) -> int:
        """Packets delivered for ``flow_id``."""
        return len(self._received.get(flow_id, ()))

    def dropped_count(self, flow_id: str) -> int:
        """Packets sent but never delivered for ``flow_id``."""
        return self.sent_count(flow_id) - self.received_count(flow_id)

    def total_dropped(self) -> int:
        """Packets lost across all flows (sent by a host, never delivered)."""
        dropped = 0
        for flow_id, sent in self._sent.items():
            dropped += len(sent) - len(self._received.get(flow_id, ()))
        return dropped

    def total_sent(self) -> int:
        """Packets sent across all flows."""
        return sum(self.sent_count(flow_id) for flow_id in self.flows())

    def deliveries(self, flow_id: str) -> List[DeliveryRecord]:
        """All delivery records of a flow, ordered by arrival time."""
        return sorted(self._received.get(flow_id, ()),
                      key=lambda record: record.received_at)

    # -- path-based queries -----------------------------------------------------------
    def arrivals_via(self, flow_id: str, via_switch: str) -> List[DeliveryRecord]:
        """Deliveries of ``flow_id`` whose path traversed ``via_switch``."""
        return [record for record in self.deliveries(flow_id) if via_switch in record.path]

    def arrivals_not_via(self, flow_id: str, via_switch: str) -> List[DeliveryRecord]:
        """Deliveries of ``flow_id`` whose path avoided ``via_switch``."""
        return [record for record in self.deliveries(flow_id) if via_switch not in record.path]

    def last_arrival_via(self, flow_id: str, via_switch: str) -> Optional[float]:
        """Time of the last delivery that traversed ``via_switch`` (or ``None``)."""
        records = self.arrivals_via(flow_id, via_switch)
        return records[-1].received_at if records else None

    def first_arrival_via(self, flow_id: str, via_switch: str) -> Optional[float]:
        """Time of the first delivery that traversed ``via_switch`` (or ``None``)."""
        records = self.arrivals_via(flow_id, via_switch)
        return records[0].received_at if records else None

    # -- gap analysis -------------------------------------------------------------------
    def largest_gap(self, flow_id: str, expected_interval: float) -> float:
        """The largest silent period of ``flow_id`` beyond its normal spacing.

        Computed over consecutive deliveries; a flow that loses packets for
        250 ms at 4 ms spacing reports a gap of about 0.25 s.  Returns 0.0
        when no gap exceeds the expected interval.
        """
        deliveries = self.deliveries(flow_id)
        if len(deliveries) < 2:
            return 0.0
        largest = 0.0
        previous = deliveries[0].received_at
        for record in deliveries[1:]:
            gap = record.received_at - previous - expected_interval
            largest = max(largest, gap)
            previous = record.received_at
        return max(largest, 0.0)

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per-flow sent/received/dropped counters (JSON-able)."""
        return {
            flow_id: {
                "sent": self.sent_count(flow_id),
                "received": self.received_count(flow_id),
                "dropped": self.dropped_count(flow_id),
            }
            for flow_id in self.flows()
        }
