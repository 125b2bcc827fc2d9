"""Figure 8 — delay between data-plane and control-plane activation.

For R = 300 modifications issued all at once (K = 300), the per-rule delay
between the moment a rule starts forwarding packets and the moment the
controller is told it is installed:

* barriers: negative for every rule (up to ~-300 ms) — incorrect behaviour,
* static timeout: always positive but wastes a large fraction of the bound,
* adaptive: good when the model is right, dips below zero when it is not,
* both probing techniques: never negative and tight.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.analysis.activation import ActivationDelays
from repro.analysis.report import format_table
from repro.experiments.common import RuleInstallParams, run_rule_install
from repro.session.record import RunRecord

#: The techniques plotted in Figure 8 with their configuration overrides.
FIG8_TECHNIQUES: List[Tuple[str, str, Dict[str, object]]] = [
    ("barriers (baseline)", "barrier", {}),
    ("timeout", "timeout", {"timeout": 0.3}),
    ("adaptive 200", "adaptive", {"assumed_rate": 200.0}),
    ("adaptive 250", "adaptive", {"assumed_rate": 250.0}),
    ("sequential", "sequential", {"probe_batch": 10}),
    ("general", "general", {}),
]


@dataclass
class Fig8Result:
    """Per-technique rule-installation results."""

    results: Dict[str, RunRecord]

    def delays(self) -> Dict[str, ActivationDelays]:
        """Activation-delay objects per technique."""
        return {name: result.activation for name, result in self.results.items()
                if result.activation is not None}

    def ranked_series(self) -> Dict[str, List[Tuple[int, float]]]:
        """``(flow rank, delay)`` series per technique — the figure's axes."""
        return {name: delays.ranked() for name, delays in self.delays().items()}

    def as_dict(self) -> Dict[str, object]:
        """JSON-able summary."""
        return {name: result.as_dict() for name, result in self.results.items()}


def run_fig8(params: Optional[RuleInstallParams] = None) -> Fig8Result:
    """Run Figure 8 for all six techniques."""
    params = params or RuleInstallParams.paper_fig8()
    results: Dict[str, RunRecord] = {}
    for label, technique, overrides in FIG8_TECHNIQUES:
        results[label] = run_rule_install(
            technique, params.scaled(rum_overrides=overrides)
        )
    return Fig8Result(results=results)


def render(result: Fig8Result) -> str:
    """Text rendering of Figure 8."""
    rows = []
    for name, delays in result.delays().items():
        if not delays.per_rule:
            rows.append([name, 0, "-", "-", "-", "-"])
            continue
        summary = delays.summary()
        rows.append([
            name,
            delays.negative_count,
            f"{summary.minimum * 1000:.0f}",
            f"{summary.median * 1000:.0f}",
            f"{summary.p90 * 1000:.0f}",
            f"{summary.maximum * 1000:.0f}",
        ])
    return format_table(
        ["technique", "rules acked early", "min delay [ms]", "median [ms]",
         "p90 [ms]", "max [ms]"],
        rows,
        title="Figure 8: control-plane ack time minus data-plane activation time",
    )


if __name__ == "__main__":  # pragma: no cover - manual invocation helper
    print(render(run_fig8()))
