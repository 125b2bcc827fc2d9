"""Plain-text rendering of experiment results.

The experiment harness prints its results as simple aligned tables so that
the output can be compared side by side with the paper's tables and figures
without any plotting dependencies.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.cdf import Distribution


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]],
                 title: str = "") -> str:
    """Render an aligned, pipe-separated table."""
    columns = len(headers)
    normalised_rows = []
    for row in rows:
        if len(row) != columns:
            raise ValueError(f"row {row!r} does not have {columns} columns")
        normalised_rows.append([_format_cell(cell) for cell in row])
    header_cells = [str(cell) for cell in headers]
    widths = [
        max(len(header_cells[index]), *(len(row[index]) for row in normalised_rows))
        if normalised_rows else len(header_cells[index])
        for index in range(columns)
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append(" | ".join(cell.ljust(width) for cell, width in zip(header_cells, widths)))
    lines.append("-+-".join("-" * width for width in widths))
    for row in normalised_rows:
        lines.append(" | ".join(cell.ljust(width) for cell, width in zip(row, widths)))
    return "\n".join(lines)


#: Scenario metric keys that count safety violations (summed per group).
VIOLATION_METRICS = (
    "http_bypassing_firewall",
    "residual_drained_deliveries",
)

#: Column headers of :func:`correctness_under_fault_rows`.
RESILIENCE_HEADERS = ["fault", "technique", "runs", "completed",
                      "mean duration [s]", "dropped", "violations",
                      "max broken [s]", "fault events", "recovered",
                      "reinstalled"]


def correctness_under_fault_rows(
    groups: Dict[Tuple[str, str], Sequence[Dict[str, object]]],
) -> List[List[object]]:
    """Per-(fault, technique) correctness rows from flat run summaries.

    ``groups`` maps ``(fault label, technique)`` to
    :meth:`~repro.session.record.RunRecord.summary` dicts (campaign records
    qualify as-is).  One row per group: how often the update completed, how
    long it took, and what correctness damage — dropped packets, safety
    violations, broken time — the fault caused, next to the number of fault
    activations that caused it.  Fault-free groups (label ``"none"``) serve
    as the control rows.

    The last two columns report the recovery subsystem: ``recovered`` counts
    runs whose armed recovery manager reported full reconvergence (``-``
    when no run of the group armed recovery — the pre-recovery rendering),
    and ``reinstalled`` sums the rules replayed from shadow state.
    """
    rows: List[List[object]] = []
    for (fault, technique), summaries in sorted(groups.items()):
        durations = [s["update_duration"] for s in summaries
                     if s.get("update_duration") is not None]
        broken = [s.get("max_broken_time") or 0.0 for s in summaries]
        violations = sum(
            int((s.get("metrics") or {}).get(key, 0))
            for s in summaries for key in VIOLATION_METRICS
        )
        recoveries = [s.get("recovery") or {} for s in summaries]
        recoveries = [r for r in recoveries if r]
        recovered = (
            f"{sum(1 for r in recoveries if r.get('reconverged'))}/{len(recoveries)}"
            if recoveries else "-"
        )
        reinstalled = (sum(int(r.get("rules_reinstalled") or 0)
                           for r in recoveries) if recoveries else "-")
        rows.append([
            fault,
            technique,
            len(summaries),
            f"{sum(1 for s in summaries if s.get('completed'))}/{len(summaries)}",
            (sum(durations) / len(durations)) if durations else "-",
            sum(int(s.get("dropped_packets") or 0) for s in summaries),
            violations,
            max(broken, default=0.0),
            sum(sum((s.get("faults") or {}).values()) for s in summaries),
            recovered,
            reinstalled,
        ])
    return rows


def _format_cell(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.3f}"
    return str(cell)


def render_flow_update_curves(
    per_technique: Dict[str, List[Tuple[Optional[float], Optional[float]]]],
    title: str = "",
) -> str:
    """Summarise (last-old-path, first-new-path) pairs per technique.

    The full curves are what the paper plots; for terminal output the table
    reports, per technique, the mean/median/max of the first-new-path times
    and the worst gap between the curves (the longest per-flow outage).
    """
    rows = []
    for technique, pairs in per_technique.items():
        new_times = [new for (_old, new) in pairs if new is not None]
        gaps = [
            max(0.0, new - old)
            for (old, new) in pairs
            if old is not None and new is not None
        ]
        if new_times:
            summary = Distribution.from_values(new_times)
            worst_gap = max(gaps) if gaps else 0.0
            rows.append([technique, summary.count, summary.mean, summary.maximum, worst_gap])
        else:
            rows.append([technique, 0, "-", "-", "-"])
    return format_table(
        ["technique", "flows", "mean update time [s]", "max update time [s]",
         "worst outage [s]"],
        rows,
        title=title,
    )
