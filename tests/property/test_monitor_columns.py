"""The columnar delivery monitor against the list-of-records monitor it replaced.

``DeliveryMonitor`` used to append one ``DeliveryRecord`` (and one
``(time, sequence)`` sent tuple) per packet and sort a flow's records on every
query.  It now keeps typed columns in arrival order and a sent count, and
builds records only for the caller.  Every query must answer exactly as
before — order of equal arrival times included — after every recording step;
the old class lives on here as the oracle.  The path queries walk the
columns from the matching end and stop at the first hit; they must also
answer as the ``min`` / ``max`` over every delivery they replaced.
"""

from collections import defaultdict
from dataclasses import astuple, dataclass
from typing import Dict, List, Optional, Tuple

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.flowstats import flow_update_stats
from repro.net.monitor import DeliveryMonitor


@dataclass
class _Record:
    flow_id: str
    sent_at: float
    received_at: float
    sequence: int
    path: Tuple[str, ...]


class _RecordListMonitor:
    """The pre-columnar ``DeliveryMonitor``, verbatim but for the record type."""

    def __init__(self) -> None:
        self._sent: Dict[str, List[Tuple[float, int]]] = defaultdict(list)
        self._received: Dict[str, List[_Record]] = defaultdict(list)
        self.probe_arrivals: List[Tuple[float, Tuple[str, ...]]] = []

    def record_sent(self, flow_id: str, time: float, sequence: int) -> None:
        self._sent[flow_id].append((time, sequence))

    def record_delivery(self, flow_id: Optional[str], record: _Record) -> None:
        if flow_id is None:
            return
        self._received[flow_id].append(record)

    def record_probe(self, time: float, path: Tuple[str, ...]) -> None:
        self.probe_arrivals.append((time, path))

    def flows(self) -> List[str]:
        return sorted(self._sent.keys())

    def delivered_flows(self) -> List[str]:
        return sorted(self._received.keys())

    def sent_count(self, flow_id: str) -> int:
        return len(self._sent.get(flow_id, ()))

    def received_count(self, flow_id: str) -> int:
        return len(self._received.get(flow_id, ()))

    def dropped_count(self, flow_id: str) -> int:
        return self.sent_count(flow_id) - self.received_count(flow_id)

    def total_dropped(self) -> int:
        dropped = 0
        for flow_id, sent in self._sent.items():
            dropped += len(sent) - len(self._received.get(flow_id, ()))
        return dropped

    def deliveries(self, flow_id: str) -> List[_Record]:
        return sorted(self._received.get(flow_id, ()),
                      key=lambda record: record.received_at)

    def arrivals_via(self, flow_id: str, via_switch: str) -> List[_Record]:
        return [record for record in self.deliveries(flow_id) if via_switch in record.path]

    def arrivals_not_via(self, flow_id: str, via_switch: str) -> List[_Record]:
        return [record for record in self.deliveries(flow_id) if via_switch not in record.path]

    def first_arrival_via(self, flow_id: str, via_switch: str) -> Optional[float]:
        records = self.arrivals_via(flow_id, via_switch)
        return records[0].received_at if records else None

    def last_arrival_not_via(self, flow_id: str, via_switch: str) -> Optional[float]:
        # Not in the old class: what its only caller, flow_update_stats, computed.
        records = self.arrivals_not_via(flow_id, via_switch)
        return records[-1].received_at if records else None

    def largest_gap(self, flow_id: str, expected_interval: float) -> float:
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
        return {
            flow_id: {
                "sent": self.sent_count(flow_id),
                "received": self.received_count(flow_id),
                "dropped": self.dropped_count(flow_id),
            }
            for flow_id in self.flows()
        }


_FLOWS = ("f0", "f1")
#: Flows that are asked about; ``ghost`` is never recorded in any way.
_ASKED = _FLOWS + ("injected", "ghost")
_SWITCHES = ("S1", "S2", "S3")
_PATHS = (("H1", "S1", "S3", "H2"), ("H1", "S1", "S2", "S3", "H2"), ("H1", "H2"), ())
#: Few distinct arrival times: equal and out-of-order arrivals are the norm.
_TIMES = st.sampled_from((0.0, 0.1, 0.3, 0.3000000000000001, 1.0))

_STEPS = st.lists(st.one_of(
    st.tuples(st.just("sent"), st.sampled_from(_FLOWS)),
    # ``injected`` arrives without ever being sent by a host; ``None`` is a
    # flow-less (control-plane-originated) packet.
    st.tuples(st.just("arrival"), st.sampled_from(_FLOWS + ("injected", None)),
              _TIMES, _TIMES, st.integers(0, 5), st.sampled_from(_PATHS)),
    st.tuples(st.just("probe"), _TIMES, st.sampled_from(_PATHS)),
), max_size=40)


def _rows(records):
    return [astuple(record) if isinstance(record, _Record) else tuple(record)
            for record in records]


def _answers(monitor):
    """Every query, over recorded and unrecorded flows alike."""
    answers = {
        "flows": monitor.flows(),
        "delivered_flows": monitor.delivered_flows(),
        "total_dropped": monitor.total_dropped(),
        "summary": monitor.summary(),
        "probes": list(monitor.probe_arrivals),
    }
    for flow_id in _ASKED:
        answers[flow_id] = {
            "counts": (monitor.sent_count(flow_id), monitor.received_count(flow_id),
                       monitor.dropped_count(flow_id)),
            "deliveries": _rows(monitor.deliveries(flow_id)),
            "gaps": [monitor.largest_gap(flow_id, interval) for interval in (0.0, 0.1, 5.0)],
            "via": {switch: (monitor.first_arrival_via(flow_id, switch),
                             monitor.last_arrival_not_via(flow_id, switch))
                    for switch in _SWITCHES},
        }
    # ... and none of the questions above may have inserted a flow.
    assert answers["flows"] == monitor.flows()
    assert answers["delivered_flows"] == monitor.delivered_flows()
    return answers


def _scanned(monitor, flow_id, switch):
    """The path queries as they were: ``min`` / ``max`` over every delivery."""
    rows = monitor.deliveries(flow_id)
    return (min((row.received_at for row in rows if switch in row.path), default=None),
            max((row.received_at for row in rows if switch not in row.path), default=None))


@settings(max_examples=200, deadline=None)
@given(_STEPS)
# Arrivals reported late, tying with each other and with an earlier report.
@example([("arrival", "f0", 0.0, 0.3, 0, _PATHS[0]), ("arrival", "f0", 0.0, 1.0, 1, _PATHS[1]),
          ("arrival", "f0", 0.1, 0.3, 2, _PATHS[1]), ("arrival", "f0", 0.1, 0.3, 3, _PATHS[0]),
          ("sent", "f0"), ("arrival", "f0", 0.0, 0.0, 4, _PATHS[2])])
def test_every_query_answers_as_the_record_list_monitor_did(steps):
    monitor, oracle = DeliveryMonitor(), _RecordListMonitor()
    for step in steps:
        if step[0] == "sent":
            monitor.record_sent(step[1])
            oracle.record_sent(step[1], 0.0, 0)
        elif step[0] == "arrival":
            _kind, flow_id, sent_at, received_at, sequence, path = step
            monitor.record_delivery(flow_id, sent_at, received_at, sequence, path)
            oracle.record_delivery(
                flow_id, _Record(flow_id, sent_at, received_at, sequence, path))
        else:
            monitor.record_probe(step[1], step[2])
            oracle.record_probe(step[1], step[2])
        assert _answers(monitor) == _answers(oracle)
        for flow_id in _ASKED:
            for switch in _SWITCHES:
                assert (monitor.first_arrival_via(flow_id, switch),
                        monitor.last_arrival_not_via(flow_id, switch)) == _scanned(
                            monitor, flow_id, switch)
    for marker in ("S2", {"f0": "S2", "ghost": "S3"}):
        for update_start in (0.0, 0.25):
            assert flow_update_stats(
                monitor, new_path_switch=marker, update_start=update_start,
                expected_interval=0.1,
            ) == flow_update_stats(
                oracle, new_path_switch=marker, update_start=update_start,
                expected_interval=0.1)


def test_records_are_built_for_the_caller_and_paths_are_shared():
    monitor = DeliveryMonitor()
    for index in range(3):
        monitor.record_delivery("f", 0.0, float(index), index, tuple(["H1", "S1", "H2"]))
    first, second = monitor.deliveries("f"), monitor.deliveries("f")
    assert first == second and first is not second
    assert first[0].latency == 0.0 and first[2].latency == 2.0
    # One interned tuple stands for every equal path the hosts reported.
    assert all(record.path is first[0].path for record in first + second)
