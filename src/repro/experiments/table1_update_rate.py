"""Table 1 — usable rule-update rate with the sequential probing technique.

The controller performs R modifications with at most K unconfirmed at any
time; RUM updates its probe rule after every N real modifications.  The
usable modification rate (probe-rule updates excluded) is reported as a
percentage of the rate achieved with plain barriers: it grows with the batch
size N (the probing overhead is amortised) and suffers when K is small
relative to N (confirmations do not arrive fast enough to keep the switch
busy).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.report import format_table
from repro.experiments.common import RuleInstallParams, run_rule_install
from repro.session.record import RunRecord

#: Probe-rule update frequencies (real modifications per probe rule update).
PROBE_FREQUENCIES = (1, 2, 5, 10, 20)
#: Window sizes (maximum unconfirmed modifications).
WINDOW_SIZES = (20, 50, 100)


@dataclass
class Table1Result:
    """The normalised usable rates."""

    #: ``(probe_batch, K) -> usable rate / barrier rate`` (fraction).
    normalised: Dict[Tuple[int, int], float]
    #: ``K -> barrier-only rate`` used as the denominator.
    barrier_rates: Dict[int, float]
    raw: Dict[Tuple[int, int], RunRecord]

    def as_dict(self) -> Dict[str, object]:
        """JSON-able summary."""
        return {
            "normalised": {f"batch={batch},K={window}": value
                           for (batch, window), value in self.normalised.items()},
            "barrier_rates": {str(window): rate for window, rate in self.barrier_rates.items()},
        }


def run_table1(
    params: Optional[RuleInstallParams] = None,
    probe_frequencies: Sequence[int] = PROBE_FREQUENCIES,
    window_sizes: Sequence[int] = WINDOW_SIZES,
) -> Table1Result:
    """Run the Table 1 sweep.

    The default parameters use a reduced R (see
    :meth:`RuleInstallParams.quick`) unless explicit parameters are given;
    the paper's R = 4000 is available via
    :meth:`RuleInstallParams.paper_table1`.
    """
    params = params or RuleInstallParams.quick(rule_count=600)
    normalised: Dict[Tuple[int, int], float] = {}
    barrier_rates: Dict[int, float] = {}
    raw: Dict[Tuple[int, int], RunRecord] = {}
    for window in window_sizes:
        barrier_result = run_rule_install(
            "barrier", params.scaled(max_unconfirmed=window)
        )
        barrier_rate = barrier_result.usable_rate or float("nan")
        barrier_rates[window] = barrier_rate
        for batch in probe_frequencies:
            result = run_rule_install(
                "sequential",
                params.scaled(max_unconfirmed=window,
                              rum_overrides={"probe_batch": batch}),
            )
            raw[(batch, window)] = result
            usable = result.usable_rate or 0.0
            normalised[(batch, window)] = usable / barrier_rate if barrier_rate else 0.0
    return Table1Result(normalised=normalised, barrier_rates=barrier_rates, raw=raw)


def render(result: Table1Result) -> str:
    """Text rendering of Table 1."""
    windows = sorted(result.barrier_rates)
    rows: List[List[object]] = []
    batches = sorted({batch for batch, _window in result.normalised})
    for batch in batches:
        row: List[object] = [f"after {batch} update{'s' if batch != 1 else ''}"]
        for window in windows:
            fraction = result.normalised.get((batch, window))
            row.append(f"{fraction * 100:.0f}%" if fraction is not None else "-")
        rows.append(row)
    return format_table(
        ["Probing frequency"] + [f"K = {window}" for window in windows],
        rows,
        title="Table 1: usable rule update rate (normalised to barrier-only rate)",
    )


if __name__ == "__main__":  # pragma: no cover - manual invocation helper
    print(render(run_table1()))
