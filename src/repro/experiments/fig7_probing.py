"""Figure 7 — flow update times with the data-plane probing techniques.

Both probing techniques are drop-free; sequential probing pays for the extra
probe-rule modifications, while general probing only sends data-plane probes
and ends up close to the "no wait" lower bound (all modifications issued at
once, no consistency guarantee).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.analysis.report import format_table, render_flow_update_curves
from repro.experiments.common import (
    EndToEndParams,
    NO_WAIT,
    run_path_migration,
)
from repro.session.record import RunRecord

#: The configurations plotted in Figure 7.
FIG7_TECHNIQUES: List[Tuple[str, str, Dict[str, object]]] = [
    ("sequential", "sequential", {"probe_batch": 10}),
    ("general", "general", {"probe_window": 30, "probe_interval": 0.01}),
    ("no wait", NO_WAIT, {}),
]


@dataclass
class Fig7Result:
    """Per-configuration end-to-end results."""

    results: Dict[str, RunRecord]

    def update_curves(self) -> Dict[str, List[Tuple[Optional[float], Optional[float]]]]:
        """The (last old-path, first new-path) pairs per configuration."""
        return {name: result.update_pairs() for name, result in self.results.items()}

    def as_dict(self) -> Dict[str, object]:
        """JSON-able summary."""
        return {name: result.as_dict() for name, result in self.results.items()}


def run_fig7(params: Optional[EndToEndParams] = None) -> Fig7Result:
    """Run Figure 7 (sequential probing, general probing, no-wait bound)."""
    params = params or EndToEndParams.default()
    results: Dict[str, RunRecord] = {}
    for label, technique, overrides in FIG7_TECHNIQUES:
        results[label] = run_path_migration(
            technique, params.scaled(rum_overrides=overrides)
        )
    return Fig7Result(results=results)


def render(result: Fig7Result) -> str:
    """Text rendering of Figure 7."""
    curves = render_flow_update_curves(
        result.update_curves(),
        title="Figure 7: flow update times, data-plane probing techniques",
    )
    rows = [
        [name, res.dropped_packets,
         f"{res.mean_update_time:.3f}" if res.mean_update_time is not None else "-",
         f"{res.completion_time:.3f}" if res.completion_time is not None else "-"]
        for name, res in result.results.items()
    ]
    summary = format_table(
        ["configuration", "packets dropped", "mean flow update time [s]",
         "last flow updated at [s]"],
        rows,
        title="Probing techniques vs the no-wait lower bound",
    )
    return curves + "\n\n" + summary


if __name__ == "__main__":  # pragma: no cover - manual invocation helper
    print(render(run_fig7()))
