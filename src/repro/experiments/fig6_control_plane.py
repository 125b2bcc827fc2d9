"""Figure 6 — flow update times with control-plane-only techniques.

Barriers are the fastest but drop packets; a 300 ms static timeout is safe
but slow; the adaptive model assuming 200 modifications/s stays safe while
the one assuming 250/s becomes optimistic once table occupancy slows the
switch down and starts dropping packets again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.analysis.report import format_table, render_flow_update_curves
from repro.experiments.common import EndToEndParams, run_path_migration
from repro.session.record import RunRecord

#: The techniques plotted in Figure 6 with their RUM configuration overrides.
FIG6_TECHNIQUES: List[Tuple[str, str, Dict[str, object]]] = [
    ("barriers (baseline)", "barrier", {}),
    ("timeout", "timeout", {"timeout": 0.3}),
    ("adaptive 200", "adaptive", {"assumed_rate": 200.0}),
    ("adaptive 250", "adaptive", {"assumed_rate": 250.0}),
]


@dataclass
class Fig6Result:
    """Per-technique end-to-end results."""

    results: Dict[str, RunRecord]

    def update_curves(self) -> Dict[str, List[Tuple[Optional[float], Optional[float]]]]:
        """The (last old-path, first new-path) pairs per technique — the figure's series."""
        return {name: result.update_pairs() for name, result in self.results.items()}

    def as_dict(self) -> Dict[str, object]:
        """JSON-able summary."""
        return {name: result.as_dict() for name, result in self.results.items()}


def run_fig6(params: Optional[EndToEndParams] = None) -> Fig6Result:
    """Run Figure 6 (all four control-plane-only configurations)."""
    params = params or EndToEndParams.default()
    results: Dict[str, RunRecord] = {}
    for label, technique, overrides in FIG6_TECHNIQUES:
        results[label] = run_path_migration(
            technique, params.scaled(rum_overrides=overrides)
        )
    return Fig6Result(results=results)


def render(result: Fig6Result) -> str:
    """Text rendering of Figure 6."""
    curves = render_flow_update_curves(
        result.update_curves(),
        title="Figure 6: flow update times, control-plane-only techniques",
    )
    rows = [
        [name, res.dropped_packets,
         f"{res.mean_update_time:.3f}" if res.mean_update_time is not None else "-",
         res.activation.negative_count if res.activation else "-"]
        for name, res in result.results.items()
    ]
    safety = format_table(
        ["technique", "packets dropped", "mean flow update time [s]", "rules acked early"],
        rows,
        title="Safety / performance summary",
    )
    return curves + "\n\n" + safety


if __name__ == "__main__":  # pragma: no cover - manual invocation helper
    print(render(run_fig6()))
