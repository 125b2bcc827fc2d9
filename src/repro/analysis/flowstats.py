"""Per-flow statistics for the end-to-end path-migration experiments.

The paper plots, per flow,

* the time the *last* data-plane packet following the old path arrived, and
* the time the *first* packet following the updated path arrived

(Figures 6 and 7; the area between the curves is the period during which
packets are being dropped), as well as the distribution of *broken time* —
how long each flow went without delivering packets during the update
(Figure 1b).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Union

from repro.analysis.cdf import fraction_at_least
from repro.net.monitor import DeliveryMonitor


@dataclass
class FlowUpdateStats:
    """Update-related timing of one flow (times relative to the update start)."""

    flow_id: str
    #: Last delivery that avoided the new-path switch, relative to update start.
    last_old_path: Optional[float]
    #: First delivery that traversed the new-path switch, relative to update start.
    first_new_path: Optional[float]
    #: Longest delivery gap beyond the flow's nominal packet spacing.
    broken_time: float
    packets_sent: int
    packets_received: int


def flow_update_stats(
    monitor: DeliveryMonitor,
    *,
    new_path_switch: Union[str, Mapping[str, str]],
    update_start: float,
    expected_interval: float,
) -> List[FlowUpdateStats]:
    """Compute :class:`FlowUpdateStats` for every flow the monitor observed.

    ``new_path_switch`` is the switch that distinguishes the new path from
    the old one (S2 in the paper's triangle).  When flows migrate to
    different paths — the scenario subsystem's ECMP rebalance, for example —
    it may instead be a per-flow mapping ``{flow_id: switch}``; flows absent
    from the mapping are not migrating and are skipped.  ``expected_interval``
    is the nominal packet spacing used to turn delivery gaps into broken time.
    """
    per_flow: Optional[Mapping[str, str]] = None
    if not isinstance(new_path_switch, str):
        per_flow = new_path_switch
    stats: List[FlowUpdateStats] = []
    for flow_id in monitor.flows():
        if per_flow is None:
            marker = new_path_switch
        elif flow_id in per_flow:
            marker = per_flow[flow_id]
        else:
            continue
        last_old = monitor.last_arrival_not_via(flow_id, marker)
        first_new = monitor.first_arrival_via(flow_id, marker)
        stats.append(
            FlowUpdateStats(
                flow_id=flow_id,
                last_old_path=None if last_old is None else last_old - update_start,
                first_new_path=None if first_new is None else first_new - update_start,
                broken_time=monitor.largest_gap(flow_id, expected_interval),
                packets_sent=monitor.sent_count(flow_id),
                packets_received=monitor.received_count(flow_id),
            )
        )
    return stats


def broken_time_distribution(
    stats: Sequence[FlowUpdateStats],
    thresholds: Sequence[float] = (0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3),
) -> Dict[float, float]:
    """Fraction of flows broken for at least each threshold (Figure 1b).

    Returns ``{threshold_seconds: percentage_of_flows}``.
    """
    broken_times = [entry.broken_time for entry in stats]
    return {
        threshold: 100.0 * fraction_at_least(broken_times, threshold)
        for threshold in thresholds
    }


def mean_update_time(stats: Sequence[FlowUpdateStats]) -> Optional[float]:
    """Average time (after the update started) at which flows reached the new path."""
    times = [entry.first_new_path for entry in stats if entry.first_new_path is not None]
    if not times:
        return None
    return sum(times) / len(times)


def update_completion_time(stats: Sequence[FlowUpdateStats]) -> Optional[float]:
    """Time at which the last flow reached the new path."""
    times = [entry.first_new_path for entry in stats if entry.first_new_path is not None]
    return max(times) if times else None
