"""The plain-text table primitive.

The experiment harness, the profiler and the examples print their results
as simple aligned tables so that the output can be compared side by side
with the paper's tables and figures without any plotting dependencies;
what ``python -m repro.store show`` prints is built on the same
:func:`format_table` in :mod:`repro.campaign.report`.
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
