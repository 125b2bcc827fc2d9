"""Live campaign fleet monitor: ``python -m repro.campaign --status``.

Reads the per-worker heartbeat shards a running (or finished) campaign
writes (see :mod:`repro.campaign.heartbeat`) and renders the fleet's
health: per-worker throughput, outcome counts and peak RSS, which cell
each worker is on right now, stragglers (a cell open for much longer than
the fleet's median cell wall), and workers that look dead (no beat for a
long time mid-cell).  Pure read-side: the monitor never touches the
results file or the workers, so it is safe to run while the campaign is
mid-flight — that is the point.

Every age/ETA computation takes an injectable ``now`` so tests can pin
time; the CLI passes the real clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.analysis.report import format_table
from repro.campaign.heartbeat import (
    SHARD_SUFFIX,
    load_manifest,
    load_shards,
    wall_now,
)

#: A worker whose last beat is older than this (seconds) while a cell is
#: open is flagged ``dead?``; with no cell open it is simply ``exited``.
DEFAULT_STALE_AFTER = 120.0
#: A cell open for longer than this multiple of the fleet's median
#: completed-cell wall marks its worker a ``straggler``.
DEFAULT_STRAGGLER_FACTOR = 4.0

#: Headers of the per-worker fleet table.
WORKER_HEADERS = ["worker", "state", "cells", "cells/s", "outcomes",
                  "rss [MB]", "current cell", "on it [s]", "last beat [s]"]


@dataclass
class WorkerStatus:
    """One worker's health, distilled from its heartbeat shard."""

    pid: int
    state: str = "idle"
    cells_done: int = 0
    cells_per_s: float = 0.0
    outcomes: Dict[str, int] = field(default_factory=dict)
    peak_rss_kb: int = 0
    current_cell: Optional[str] = None
    #: Seconds the current cell has been open (``None``: no open cell).
    open_for_s: Optional[float] = None
    #: Seconds since the worker's last beat of any kind.
    last_beat_age_s: float = 0.0
    #: Walls of this worker's completed cells (feeds the fleet median).
    completed_walls: List[float] = field(default_factory=list)


def resolve_heartbeat_dir(path: Path) -> Path:
    """The heartbeat directory behind any of the paths users pass.

    Accepts the heartbeat directory itself, the campaign results *directory*
    (containing a ``heartbeats/`` subdirectory), or the results *file* (the
    runner keeps heartbeats in a sibling ``heartbeats/`` directory).
    """
    path = Path(path)
    if path.is_dir():
        if any(path.glob(f"*{SHARD_SUFFIX}")) or (path / "campaign.json").exists():
            return path
        return path / "heartbeats"
    return path.parent / "heartbeats"


def worker_statuses(shards: Dict[int, List[Dict[str, object]]],
                    now: float) -> List[WorkerStatus]:
    """Per-worker health rows, sorted by pid.

    State ladder: a worker with an open cell is ``running``, promoted to
    ``straggler`` when the cell has been open longer than
    :data:`DEFAULT_STRAGGLER_FACTOR` × the fleet's median completed-cell
    wall, and to ``dead?`` when it also has not beaten for
    :data:`DEFAULT_STALE_AFTER` seconds.  Without an open cell it is
    ``idle`` (recent beat) or ``exited``.
    """
    statuses: List[WorkerStatus] = []
    for pid in sorted(shards):
        lines = shards[pid]
        status = WorkerStatus(pid=pid)
        open_cell: Optional[Dict[str, object]] = None
        for line in lines:
            event = line.get("event")
            if event == "cell-start":
                open_cell = line
            elif event == "cell-done":
                open_cell = None
                status.cells_done = int(line.get("cells_done", 0))
                status.cells_per_s = float(line.get("cells_per_s", 0.0))
                status.outcomes = dict(line.get("outcomes", {}))
                status.peak_rss_kb = int(line.get("peak_rss_kb", 0))
                status.completed_walls.append(float(line.get("wall_s", 0.0)))
        status.last_beat_age_s = max(0.0, now - float(lines[-1].get("ts", now)))
        if open_cell is not None:
            status.current_cell = str(open_cell.get("cell_id"))
            status.open_for_s = max(0.0, now - float(open_cell.get("ts", now)))
        statuses.append(status)

    walls = sorted(
        wall for status in statuses for wall in status.completed_walls)
    median_wall = walls[len(walls) // 2] if walls else None
    for status in statuses:
        if status.current_cell is not None:
            status.state = "running"
            if (median_wall is not None and status.open_for_s is not None
                    and status.open_for_s > DEFAULT_STRAGGLER_FACTOR * median_wall):
                status.state = "straggler"
            if status.last_beat_age_s > DEFAULT_STALE_AFTER:
                status.state = "dead?"
        else:
            status.state = ("exited" if status.last_beat_age_s > DEFAULT_STALE_AFTER
                            else "idle")
    return statuses


def _outcomes_cell(outcomes: Dict[str, int]) -> str:
    if not outcomes:
        return "-"
    return " ".join(f"{key}={outcomes[key]}" for key in sorted(outcomes))


def _worker_rows(statuses: List[WorkerStatus]) -> List[List[object]]:
    rows: List[List[object]] = []
    for status in statuses:
        rows.append([
            status.pid,
            status.state,
            status.cells_done,
            f"{status.cells_per_s:.2f}" if status.cells_per_s else "-",
            _outcomes_cell(status.outcomes),
            f"{status.peak_rss_kb / 1024.0:.0f}" if status.peak_rss_kb else "-",
            status.current_cell or "-",
            f"{status.open_for_s:.0f}" if status.open_for_s is not None else "-",
            f"{status.last_beat_age_s:.0f}",
        ])
    return rows


def render_status(path: Path, now: Optional[float] = None) -> str:
    """The fleet-health view for one campaign's heartbeat directory.

    Only beats stamped at or after the manifest's ``started`` count: a
    resumed invocation writes a new manifest whose ``pending`` covers its
    own cells, and the shards of the invocation before it stay on disk.
    """
    heartbeat_dir = resolve_heartbeat_dir(Path(path))
    shards = load_shards(heartbeat_dir)
    if not shards:
        return (f"(no heartbeat shards under {heartbeat_dir}; is the campaign "
                "running with heartbeats enabled?)")
    if now is None:
        now = wall_now()
    manifest = load_manifest(heartbeat_dir)
    started = float(manifest.get("started", 0.0))
    current = {pid: kept for pid, lines in shards.items()
               if (kept := [line for line in lines
                            if float(line.get("ts", 0.0)) >= started])}
    statuses = worker_statuses(current, now)

    done = sum(status.cells_done for status in statuses)
    throughput = sum(status.cells_per_s for status in statuses
                     if status.state in ("running", "straggler", "idle"))
    lines: List[str] = []
    total = manifest.get("total_cells")
    pending = manifest.get("pending")
    header = f"Campaign status — {done} cells done"
    if isinstance(pending, int):
        remaining = max(0, pending - done)
        header += f", {remaining} of {pending} pending remain"
        if isinstance(total, int):
            header += f" ({total} total in grid)"
        cached = manifest.get("cached")
        if isinstance(cached, int) and cached:
            header += f", {cached} from cache"
        if remaining and throughput > 0:
            header += f", ETA {remaining / throughput:,.0f}s"
    if throughput > 0:
        header += f" @ {throughput:.2f} cells/s"
    lines.append(header)
    if manifest.get("results"):
        age = now - float(manifest.get("started", now))
        lines.append(f"results: {manifest['results']} (started {age:,.0f}s ago,"
                     f" {manifest.get('workers', '?')} workers)")
    lines.append("")
    lines.append(format_table(WORKER_HEADERS, _worker_rows(statuses),
                              title="Workers"))

    flagged = [status for status in statuses
               if status.state in ("straggler", "dead?")]
    for status in flagged:
        lines.append("")
        lines.append(
            f"warning: worker {status.pid} is {status.state} — cell "
            f"{status.current_cell} open for {status.open_for_s:.0f}s "
            f"(last beat {status.last_beat_age_s:.0f}s ago)")
    return "\n".join(lines)
