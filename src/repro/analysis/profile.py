"""Rendering of :class:`~repro.obs.profiler.ProfileReport` attributions.

The profiler's raw output is per-callback-site accounting; this module turns
it into the plain-text views the kernel-optimisation work reads: a top-N
hot-callback table (where the wall time went) and the per-event-class
rollup.  A site is a kernel callback, so a packet's whole switch hop
(ingress, lookup, next transmit) reads as
``net.link.Link._flush_train`` and a generated packet as
``net.traffic.TrafficGenerator._emit``.  Everything renders through the same
:func:`~repro.analysis.report.format_table` machinery as the campaign and
resilience reports.
"""

from __future__ import annotations

from typing import Dict, List

from repro.analysis.report import format_table
from repro.obs.profiler import ProfileReport

#: Headers of the hot-callback table.
HOT_CALLBACK_HEADERS = [
    "callback site", "calls", "wall [ms]", "share", "us/call", "scheduled",
]


def hot_callbacks(report: ProfileReport,
                  top: int = 10) -> List[Dict[str, object]]:
    """The ``top`` callback rows by attributed wall time, descending.

    Ties (and the zero-wall tail) break on call count then site name, so the
    selection is stable across runs even when wall measurements jitter.
    """
    ranked = sorted(
        report.callbacks,
        key=lambda row: (-float(row.get("wall_s", 0.0)),
                         -int(row.get("calls", 0)), str(row.get("site"))),
    )
    return ranked[:max(0, top)]


def _share(value: float, total: float) -> str:
    return f"{100.0 * value / total:.1f}%" if total > 0 else "-"


def hot_callback_rows(report: ProfileReport,
                      top: int = 10) -> List[List[object]]:
    """Table rows for the top-N hot callbacks."""
    total_wall = float(report.totals.get("wall_s", 0.0))
    rows: List[List[object]] = []
    for entry in hot_callbacks(report, top=top):
        wall = float(entry.get("wall_s", 0.0))
        calls = int(entry.get("calls", 0))
        rows.append([
            _strip_site(str(entry.get("site", "?"))),
            calls,
            f"{wall * 1000.0:.2f}",
            _share(wall, total_wall),
            f"{wall * 1e6 / calls:.1f}" if calls else "-",
            entry.get("scheduled", 0),
        ])
    return rows


def _strip_site(site: str) -> str:
    """Drop the common ``repro.`` prefix; full dotted paths stay unambiguous."""
    return site[6:] if site.startswith("repro.") else site


def event_class_rows(report: ProfileReport) -> List[List[object]]:
    total_wall = float(report.totals.get("wall_s", 0.0))
    rows: List[List[object]] = []
    for entry in sorted(report.by_class(),
                        key=lambda row: -float(row.get("wall_s", 0.0))):
        wall = float(entry.get("wall_s", 0.0))
        rows.append([
            entry.get("event_class", "?"),
            entry.get("calls", 0),
            f"{wall * 1000.0:.2f}",
            _share(wall, total_wall),
            entry.get("scheduled", 0),
        ])
    return rows


def render_profile_report(report: ProfileReport, top: int = 10) -> str:
    """The full plain-text profile: header, event classes, hot callbacks."""
    if not report:
        return "(empty profile: the session dispatched no observed events)"
    totals = report.totals
    events = totals["events"]
    wall = float(totals["wall_s"])
    rate = f"{events / wall:,.0f} events/s" if wall > 0 else "-"
    collections = "/".join(map(str, totals["gc_collections"]))
    header = (f"Profile — {events} events, {wall * 1000.0:.1f} ms wall, {rate}; "
              f"collector {float(totals['gc_s']) * 1000.0:.2f} ms, "
              f"{collections} collections")
    return "\n\n".join([
        header,
        format_table(["event class", "calls", "wall [ms]", "share", "scheduled"],
                     event_class_rows(report), title="Event classes"),
        format_table(HOT_CALLBACK_HEADERS, hot_callback_rows(report, top=top),
                     title=f"Top {min(top, len(report.callbacks))} hot callbacks"),
    ])
