"""Delivery monitoring.

The monitor is the measurement instrument of the end-to-end experiments: for
every flow it records how many packets were sent and when (and via which
switch path) each one arrived at its destination.  The analysis layer turns
these records into the quantities the paper plots — per-flow broken time
(Figure 1b), old-path/new-path switchover times (Figures 6 and 7) and
data-plane activation times (Figure 8).

Recording runs once per packet of every constant-rate flow, so it keeps
*columns*, not objects: per flow three typed arrays (sent time, arrival time,
sequence number) and a list of path tuples interned monitor-wide (a run sees
a handful of distinct paths), plus a sent *count* — a delivery leaves nothing
behind for the cyclic garbage collector to walk.  Columns are kept in arrival
order (ties in recording order), which the simulation clock gives for free,
so no query sorts.  :class:`DeliveryRecord` is only what the record-returning
queries build for their caller; the monitor holds none.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from functools import partial
from itertools import repeat
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple


class DeliveryRecord(NamedTuple):
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


#: Builds a :class:`DeliveryRecord` from its complete field tuple, in C.
_record = partial(tuple.__new__, DeliveryRecord)


class _FlowLog(NamedTuple):
    """The delivery columns of one flow, in arrival order."""

    sent_at: array
    received_at: array
    sequence: array
    paths: List[Tuple[str, ...]]


class DeliveryMonitor:
    """Collects per-flow send counts and delivery columns."""

    def __init__(self) -> None:
        self._sent: Dict[str, int] = {}
        self._logs: Dict[str, _FlowLog] = {}
        self._paths: Dict[Tuple[str, ...], Tuple[str, ...]] = {}
        self.probe_arrivals: List[Tuple[float, Tuple[str, ...]]] = []

    # -- recording -------------------------------------------------------------
    def record_sent(self, flow_id: str) -> None:
        """Register a packet handed to the network by its source host."""
        self._sent[flow_id] = self._sent.get(flow_id, 0) + 1

    def record_delivery(self, flow_id: Optional[str], sent_at: float,
                        received_at: float, sequence: int,
                        path: Tuple[str, ...]) -> None:
        """Register a packet arriving at its destination host."""
        if flow_id is None:
            return
        log = self._logs.get(flow_id)
        if log is None:
            log = self._logs[flow_id] = _FlowLog(array("d"), array("d"), array("q"), [])
        path = self._paths.setdefault(path, path)
        # A host's clock only advances, so this is an append; a caller that
        # reports out of order lands after every arrival that is not later.
        arrivals = log.received_at
        if arrivals and received_at < arrivals[-1]:
            at = bisect_right(arrivals, received_at)
            for column, value in zip(log, (sent_at, received_at, sequence, path)):
                column.insert(at, value)
            return
        log.sent_at.append(sent_at)
        arrivals.append(received_at)
        log.sequence.append(sequence)
        log.paths.append(path)

    def record_probe(self, time: float, path: Tuple[str, ...]) -> None:
        """Register a RUM probe packet reaching a host (diagnostics only)."""
        self.probe_arrivals.append((time, path))

    def _rows(self, flow_id: str) -> Iterator[tuple]:
        """The flow's ``DeliveryRecord`` field tuples, in arrival order."""
        log = self._logs.get(flow_id)
        return iter(()) if log is None else zip(repeat(flow_id), *log)

    # -- per-flow queries ----------------------------------------------------------
    def flows(self) -> List[str]:
        """All flow ids that sent at least one packet."""
        return sorted(self._sent)

    def delivered_flows(self) -> List[str]:
        """All flow ids with at least one delivery (includes controller-injected
        packets that were never registered as sent by a host)."""
        return sorted(self._logs)

    def sent_count(self, flow_id: str) -> int:
        """Packets sent by ``flow_id``."""
        return self._sent.get(flow_id, 0)

    def received_count(self, flow_id: str) -> int:
        """Packets delivered for ``flow_id``."""
        log = self._logs.get(flow_id)
        return 0 if log is None else len(log.paths)

    def dropped_count(self, flow_id: str) -> int:
        """Packets sent but never delivered for ``flow_id``."""
        return self.sent_count(flow_id) - self.received_count(flow_id)

    def total_dropped(self) -> int:
        """Packets lost across all flows (sent by a host, never delivered)."""
        return sum(self._sent.values()) - sum(
            len(log.paths) for flow_id, log in self._logs.items() if flow_id in self._sent)

    def total_sent(self) -> int:
        """Packets sent across all flows."""
        return sum(self._sent.values())

    def deliveries(self, flow_id: str) -> List[DeliveryRecord]:
        """All delivery records of a flow, ordered by arrival time."""
        return list(map(_record, self._rows(flow_id)))

    # -- path-based queries -----------------------------------------------------------
    def _select(self, flow_id: str, via_switch: str, via: bool) -> Iterator[tuple]:
        """The :meth:`_rows` whose path did (``via``) or did not traverse ``via_switch``."""
        return (row for row in self._rows(flow_id) if (via_switch in row[4]) is via)

    def arrivals_via(self, flow_id: str, via_switch: str) -> List[DeliveryRecord]:
        """Deliveries of ``flow_id`` whose path traversed ``via_switch``."""
        return list(map(_record, self._select(flow_id, via_switch, True)))

    def arrivals_not_via(self, flow_id: str, via_switch: str) -> List[DeliveryRecord]:
        """Deliveries of ``flow_id`` whose path avoided ``via_switch``."""
        return list(map(_record, self._select(flow_id, via_switch, False)))

    def last_arrival_via(self, flow_id: str, via_switch: str) -> Optional[float]:
        """Time of the last delivery that traversed ``via_switch`` (or ``None``)."""
        return max((row[2] for row in self._select(flow_id, via_switch, True)), default=None)

    def first_arrival_via(self, flow_id: str, via_switch: str) -> Optional[float]:
        """Time of the first delivery that traversed ``via_switch`` (or ``None``)."""
        return min((row[2] for row in self._select(flow_id, via_switch, True)), default=None)

    def last_arrival_not_via(self, flow_id: str, via_switch: str) -> Optional[float]:
        """Time of the last delivery that avoided ``via_switch`` (or ``None``)."""
        return max((row[2] for row in self._select(flow_id, via_switch, False)), default=None)

    # -- gap analysis -------------------------------------------------------------------
    def largest_gap(self, flow_id: str, expected_interval: float) -> float:
        """The largest silent period of ``flow_id`` beyond its normal spacing.

        Computed over consecutive deliveries; a flow that loses packets for
        250 ms at 4 ms spacing reports a gap of about 0.25 s.  Returns 0.0
        when no gap exceeds the expected interval.
        """
        log = self._logs.get(flow_id)
        if log is None:
            return 0.0
        arrivals = log.received_at
        largest = 0.0
        for earlier, later in zip(arrivals, arrivals[1:]):
            gap = later - earlier - expected_interval
            if gap > largest:
                largest = gap
        return largest

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
