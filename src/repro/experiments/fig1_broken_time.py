"""Figure 1b — % of flows vs broken time during a consistent update.

The paper's headline demonstration: a consistent path migration executed
against a hardware switch drops packets for up to ~290 ms per flow when the
controller trusts OpenFlow barriers, and drops nothing when RUM's data-plane
acknowledgments are used instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.analysis.flowstats import broken_time_distribution
from repro.analysis.report import format_table
from repro.experiments.common import EndToEndParams, run_path_migration
from repro.session.record import RunRecord

#: Broken-time thresholds (seconds) reported for each technique, mirroring the
#: x axis of Figure 1b.
THRESHOLDS = (0.004, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3)


@dataclass
class Fig1Result:
    """Both runs of Figure 1b plus the derived distributions."""

    with_barriers: RunRecord
    with_acks: RunRecord
    thresholds: tuple = THRESHOLDS

    def distributions(self) -> Dict[str, Dict[float, float]]:
        """% of flows broken for at least each threshold, per configuration."""
        return {
            "OF barriers": broken_time_distribution(self.with_barriers.stats, self.thresholds),
            "working acks (RUM)": broken_time_distribution(self.with_acks.stats, self.thresholds),
        }

    def as_dict(self) -> Dict[str, object]:
        """JSON-able summary."""
        return {
            "barriers_dropped_packets": self.with_barriers.dropped_packets,
            "acks_dropped_packets": self.with_acks.dropped_packets,
            "barriers_max_broken": max(self.with_barriers.broken_times(), default=0.0),
            "acks_max_broken": max(self.with_acks.broken_times(), default=0.0),
            "distributions": {
                name: {str(threshold): value for threshold, value in dist.items()}
                for name, dist in self.distributions().items()
            },
        }


def run_fig1(params: Optional[EndToEndParams] = None,
             ack_technique: str = "general") -> Fig1Result:
    """Run the Figure 1b experiment (barriers vs working acknowledgments)."""
    params = params or EndToEndParams.default()
    with_barriers = run_path_migration("barrier", params)
    with_acks = run_path_migration(ack_technique, params)
    return Fig1Result(with_barriers=with_barriers, with_acks=with_acks)


def render(result: Fig1Result) -> str:
    """Text rendering of Figure 1b."""
    rows: List[List[object]] = []
    distributions = result.distributions()
    for threshold in result.thresholds:
        rows.append([
            f">= {threshold * 1000:.0f} ms",
            f"{distributions['OF barriers'][threshold]:.1f}%",
            f"{distributions['working acks (RUM)'][threshold]:.1f}%",
        ])
    table = format_table(
        ["broken for at least", "% of flows (OF barriers)", "% of flows (RUM acks)"],
        rows,
        title="Figure 1b: flows broken during a consistent update",
    )
    footer = (
        f"\npackets dropped: barriers={result.with_barriers.dropped_packets}, "
        f"RUM acks={result.with_acks.dropped_packets}"
    )
    return table + footer


if __name__ == "__main__":  # pragma: no cover - manual invocation helper
    print(render(run_fig1()))
