"""Per-worker heartbeat telemetry for campaign runs.

Each :class:`~concurrent.futures.ProcessPoolExecutor` worker appends one
JSON line per cell boundary to its own shard
(``<heartbeat dir>/worker-<pid>.heartbeat.jsonl``), so the fleet's health
is observable *while the campaign runs* without any coordination: the
``python -m repro status`` monitor
(:func:`repro.campaign.report.render_status`) just re-reads the shards.
One shard per worker pid means no cross-process locking; appends of one
short line are atomic enough on every filesystem the runner targets.

Shard lines carry ``event`` = ``worker-start`` / ``cell-start`` /
``cell-done``; ``cell-done`` lines accumulate the worker's outcome counts,
cells/s throughput and peak RSS.  The runner additionally writes one
``campaign.json`` manifest per run with the grid totals the monitor needs
for ETA math.  The read side lives here too, so one module knows the
shard format: :func:`worker_statuses` distils each worker's state from its
shard.

This module is the campaign side's one sanctioned wall-clock reader (RL002
in ``tests/gates/test_determinism_rules.py`` allowlists it): heartbeats are
*about* wall time, and nothing they measure feeds back into simulation
state.  The runner routes its own elapsed/ETA arithmetic through
:func:`wall_clock` for the same reason.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

#: Shard filename suffix (one shard per worker process).
SHARD_SUFFIX = ".heartbeat.jsonl"
#: The per-run manifest the status monitor reads for ETA math.
MANIFEST_NAME = "campaign.json"


def wall_clock() -> float:
    """Monotonic wall seconds (elapsed/ETA arithmetic)."""
    return time.perf_counter()


def wall_now() -> float:
    """Epoch wall seconds (heartbeat timestamps, last-seen ages)."""
    return time.time()


def peak_rss_kb() -> int:
    """This process's peak RSS in kilobytes (Linux ``ru_maxrss`` unit)."""
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - macOS reports bytes
        rss //= 1024
    return int(rss)


class HeartbeatWriter:
    """One worker's append-only heartbeat shard."""

    def __init__(self, directory: Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.pid = os.getpid()
        self.path = self.directory / f"worker-{self.pid}{SHARD_SUFFIX}"
        self.cells_done = 0
        self.outcomes: Dict[str, int] = {}
        self.started = wall_now()
        self._emit({"event": "worker-start"})

    def cell_started(self, cell_id: str) -> None:
        self._emit({"event": "cell-start", "cell_id": cell_id})

    def cell_finished(self, cell_id: str, status: str, wall_s: float) -> None:
        self.cells_done += 1
        self.outcomes[status] = self.outcomes.get(status, 0) + 1
        elapsed = max(wall_now() - self.started, 1e-9)
        self._emit({
            "event": "cell-done",
            "cell_id": cell_id,
            "status": status,
            "wall_s": round(wall_s, 3),
            "cells_done": self.cells_done,
            "cells_per_s": round(self.cells_done / elapsed, 3),
            "outcomes": dict(self.outcomes),
            "peak_rss_kb": peak_rss_kb(),
        })

    def _emit(self, payload: Dict[str, object]) -> None:
        payload.setdefault("ts", round(wall_now(), 3))
        payload.setdefault("pid", self.pid)
        with self.path.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(payload) + "\n")


#: Per-process writer cache: a worker reuses one shard across the many
#: chunks the runner ships it (keyed by directory so tests with several
#: campaigns in one process stay isolated).
_WRITERS: Dict[str, HeartbeatWriter] = {}


def writer_for(directory: Optional[Path]) -> Optional[HeartbeatWriter]:
    """The calling process's shard writer for ``directory`` (cached)."""
    if directory is None:
        return None
    key = f"{os.getpid()}:{directory}"
    writer = _WRITERS.get(key)
    if writer is None:
        writer = _WRITERS[key] = HeartbeatWriter(Path(directory))
    return writer


def write_manifest(directory: Path, *, total_cells: int, pending: int,
                   workers: int, results: str, cached: int = 0) -> Path:
    """Write the run manifest the ``status`` monitor reads for ETA math.

    ``cached`` counts cells the runner emitted from its run store instead of
    simulating; ``pending`` counts only cells actually dispatched to
    workers, so the monitor's ETA stays a measure of simulation work.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / MANIFEST_NAME
    payload = {
        "started": round(wall_now(), 3),
        "total_cells": total_cells,
        "pending": pending,
        "workers": workers,
        "results": results,
        "cached": cached,
    }
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return path


def load_manifest(directory: Path) -> Dict[str, object]:
    """The run manifest, or ``{}`` when none was written (old runs)."""
    path = Path(directory) / MANIFEST_NAME
    if not path.exists():
        return {}
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError:
        return {}


def load_shards(directory: Path) -> Dict[int, List[Dict[str, object]]]:
    """All parseable heartbeat lines, grouped by worker pid."""
    shards: Dict[int, List[Dict[str, object]]] = {}
    directory = Path(directory)
    if not directory.is_dir():
        return shards
    for path in sorted(directory.glob(f"*{SHARD_SUFFIX}")):
        lines: List[Dict[str, object]] = []
        for raw in path.read_text(encoding="utf-8").splitlines():
            raw = raw.strip()
            if not raw:
                continue
            try:
                lines.append(json.loads(raw))
            except json.JSONDecodeError:
                continue  # a half-written trailing beat from a live worker
        if lines:
            shards[int(lines[0].get("pid", 0))] = lines
    return shards


#: A worker whose last beat is older than this (seconds) while a cell is
#: open is flagged ``dead?``; with no cell open it is simply ``exited``.
DEFAULT_STALE_AFTER = 120.0
#: A cell open for longer than this multiple of the fleet's median
#: completed-cell wall marks its worker a ``straggler``.
DEFAULT_STRAGGLER_FACTOR = 4.0


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
        if any(path.glob(f"*{SHARD_SUFFIX}")) or (path / MANIFEST_NAME).exists():
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
