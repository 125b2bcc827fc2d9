"""The parallel campaign runner.

Fans the cells of a :class:`~repro.campaign.grid.CampaignSpec` out across
worker processes (each simulation run is single-threaded pure Python, so
process-level parallelism is what buys wall-clock time) and writes one JSON
line per grid cell to the results file, which holds this invocation's grid
and nothing else.  The run store given as ``cache`` is the campaign's only
memory: a cell it holds is emitted from it verbatim, and every finished
``ok``/``incomplete`` cell is put into it as its chunk completes — so a
killed or partly failed campaign re-run against the same store simulates
only what the store lacks.
"""

from __future__ import annotations

import json
import logging
import os
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.analysis.timeline import activation_gap_summary
from repro.campaign import heartbeat
from repro.campaign.grid import CampaignCell, CampaignSpec
from repro.scenarios.engine import run_scenario

logger = logging.getLogger(__name__)


def run_cell(cell: CampaignCell,
             trace_dir: Optional[Path] = None) -> Dict[str, object]:
    """Run one grid cell; the unit of work shipped to worker processes.

    The cell runs through the unified session API
    (:meth:`~repro.session.spec.SessionSpec.run` via the scenario adapter)
    and its record carries the flat :meth:`~repro.session.record.RunRecord.summary`
    keys plus the session's canonical spec encoding under ``"session"``.

    Every finished cell, traced or not, carries the per-switch
    ``activation_gaps`` summary of its record's activation ledger
    (:func:`repro.analysis.timeline.activation_gap_summary`: rules acked,
    acked early, never activated, gap min/mean/max).  Traced cells written
    with ``trace_dir`` set also get a Chrome-trace shard at
    ``<trace_dir>/<cell_id>.trace.json`` (its path recorded under
    ``trace_path``).  Neither the ledger nor the event log enters the JSONL
    record: one cell stays one short line.

    Never raises: failures come back as ``status: "error"`` records so one
    broken cell cannot take down the campaign (the store never keeps one,
    so a re-run retries it).

    Every record also carries its telemetry: ``wall_s`` (seconds this cell
    took in its worker) and ``peak_rss_kb`` (the worker process's peak RSS
    so far — ``ru_maxrss`` is a high-water mark, so this ratchets upward
    across a worker's cells rather than resetting per cell).
    """
    record: Dict[str, object] = {
        "cell_id": cell.cell_id,
        "config": cell.config(),
        "worker_pid": os.getpid(),
    }
    started = heartbeat.wall_clock()
    try:
        result = run_scenario(cell.scenario, cell.technique,
                              cell.scenario_params())
        record.update(result.summary())
        record["session"] = dict(result.spec)
        record["status"] = "ok" if result.completed else "incomplete"
        record["activation_gaps"] = activation_gap_summary(result.ledger)
        if result.trace is not None and trace_dir is not None:
            from repro.obs.export import write_chrome_trace

            trace_dir = Path(trace_dir)
            trace_dir.mkdir(parents=True, exist_ok=True)
            shard = trace_dir / f"{cell.cell_id}.trace.json"
            write_chrome_trace(result.trace, shard)
            record["trace_path"] = str(shard)
    except Exception as error:  # noqa: BLE001 - isolate worker failures
        record["status"] = "error"
        record["error"] = f"{type(error).__name__}: {error}"
        record["traceback"] = traceback.format_exc()
    record["wall_s"] = round(heartbeat.wall_clock() - started, 3)
    record["peak_rss_kb"] = heartbeat.peak_rss_kb()
    return record


def run_cells_chunk(
    cells: List[CampaignCell],
    trace_dir: Optional[Path] = None,
    heartbeat_dir: Optional[Path] = None,
) -> List[Dict[str, object]]:
    """Run a chunk of grid cells in one worker task.

    Chunking amortises the executor's per-task pickling/IPC overhead over
    several simulations and lets the worker-process topology cache
    (:func:`repro.scenarios.generators.build_topology_cached`) pay off
    within a single task.  Cell isolation is unchanged: each cell still
    produces its own record, errors included.

    With ``heartbeat_dir`` set, the worker appends cell-start/cell-done
    beats to its own shard there (see :mod:`repro.campaign.heartbeat`), so
    ``python -m repro.campaign --status`` can watch the fleet mid-run.
    """
    beats = heartbeat.writer_for(heartbeat_dir)
    records: List[Dict[str, object]] = []
    for cell in cells:
        if beats is not None:
            beats.cell_started(cell.cell_id)
        record = run_cell(cell, trace_dir=trace_dir)
        if beats is not None:
            beats.cell_finished(cell.cell_id, str(record.get("status")),
                                float(record.get("wall_s", 0.0)))
        records.append(record)
    return records


def load_records(results_path: Path) -> List[Dict[str, object]]:
    """All parseable records of a JSON-lines results file (may be empty):
    a blank line, or one a killed run left half-written, is none."""
    records = []
    if not results_path.exists():
        return records
    with results_path.open("r", encoding="utf-8") as handle:
        for line in handle:
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                continue
    return records


def encode_record(record: Dict[str, object], cell: CampaignCell,
                  line: Optional[str] = None) -> "tuple[str, Dict[str, object]]":
    """The results line of a cell record, and the record it stands for.

    A store hit's ``line`` is re-emitted as it stands, encoding nothing.  A
    record json cannot serialize is downgraded to an error: it must cost
    only its own cell, not the campaign loop with other futures in flight.
    """
    if line is not None:
        return line, record
    try:
        return json.dumps(record), record
    except TypeError as error:
        record = _error_record(cell, f"unserializable result: {error}")
        return json.dumps(record), record


def _error_record(cell: CampaignCell, error: str) -> Dict[str, object]:
    """The record of a cell that produced no outcome."""
    return {"cell_id": cell.cell_id, "config": cell.config(),
            "status": "error", "error": error}


#: Record statuses the run store keeps, and so never re-simulates.
#: ``incomplete`` runs are deterministic (seeded simulation hit its deadline)
#: so re-running them can only reproduce the same record; ``error`` cells are
#: retried because they may be environmental (a killed worker, a transient
#: import failure).
FINAL_STATUSES = ("ok", "incomplete")


@dataclass
class CampaignOutcome:
    """What one :meth:`CampaignRunner.run` invocation did."""

    total_cells: int
    ran: int
    failed: int
    results_path: Path
    records: List[Dict[str, object]] = field(default_factory=list)
    #: Cells emitted verbatim from the run store's cache (never simulated).
    cached: int = 0


class CampaignRunner:
    """Expands a spec, emits the cells the store holds, and runs the rest."""

    def __init__(
        self,
        spec: CampaignSpec,
        results_path: Path,
        max_workers: Optional[int] = None,
        cache: Optional[object] = None,
    ) -> None:
        self.spec = spec
        #: A :class:`repro.store.RunStore`: a cell whose
        #: ``cell_id`` maps to a digest-verified record there is emitted
        #: verbatim instead of simulated, and every finished cell is put
        #: into it.  ``None``: nothing persists beyond the results file.
        self.cache = cache
        self.results_path = Path(results_path)
        self.max_workers = max_workers or min(os.cpu_count() or 2, 8)
        #: Where traced cells write their Chrome-trace shards.
        self.trace_dir = (self.results_path.parent / "traces"
                          if spec.trace else None)
        #: Where workers append their heartbeat shards; ``--status`` reads
        #: this directory live.
        self.heartbeat_dir = self.results_path.parent / "heartbeats"

    def _chunk_size_for(self, pending_count: int) -> int:
        """Cells per worker task: ~4 chunks per worker, capped at 8 cells.

        Small enough that a killed run loses little and progress stays
        responsive, large enough to amortise executor overhead and reuse
        each worker's topology cache.
        """
        per_worker = pending_count / max(1, self.max_workers * 4)
        return max(1, min(8, int(per_worker)))

    def _execute(self, pending: List[CampaignCell]):
        """Yield ``(chunk, records)`` per worker task as each one finishes."""
        if not pending:
            return
        chunk_size = self._chunk_size_for(len(pending))
        chunks = [pending[index:index + chunk_size]
                  for index in range(0, len(pending), chunk_size)]
        with ProcessPoolExecutor(max_workers=self.max_workers) as pool:
            futures = {pool.submit(run_cells_chunk, chunk, self.trace_dir,
                                   self.heartbeat_dir): chunk
                       for chunk in chunks}
            remaining = set(futures)
            while remaining:
                finished, remaining = wait(remaining,
                                           return_when=FIRST_COMPLETED)
                for future in finished:
                    chunk = futures[future]
                    try:
                        chunk_records = future.result()
                    except Exception as error:  # pool/pickling failure
                        chunk_records = [_error_record(
                            cell, f"{type(error).__name__}: {error}")
                            for cell in chunk]
                    yield chunk, chunk_records

    def run(self, progress: Optional[Callable[[str], None]] = None) -> CampaignOutcome:
        """Write one JSON line per grid cell: store hits first, then the rest.

        The results file is rewritten, and lines are flushed as each chunk
        finishes; with a ``cache`` store, that chunk's ``ok``/``incomplete``
        records are put into the store at the same moment, so a kill at any
        point loses at most in-flight cells — never completed ones.

        Store hits are emitted *verbatim*, as the bytes of the line first
        written — original telemetry included — so a fully cached re-run
        simulates nothing, encodes no JSON and aggregates to a
        byte-identical report.

        Progress goes through the module logger by default (INFO level), so
        parallel campaigns compose with the host application's logging
        configuration instead of interleaving bare prints; pass ``progress``
        to capture the messages directly (tests, custom UIs).
        """
        say = progress or logger.info
        cells = self.spec.cells()
        pending = cells
        # ``(cell, (stored line, record))`` per store hit.
        cache_hits: List[tuple] = []
        if self.cache is not None:
            pending = []
            for cell in cells:
                hit = self.cache.cached_record(cell.cell_id)
                if hit is None:
                    pending.append(cell)
                else:
                    cache_hits.append((cell, hit))
            if cache_hits:
                say(f"cache: {len(cache_hits)}/{len(cells)} cells "
                    f"have digest-verified records in {self.cache.root}; they "
                    f"may predate this code (delete {self.cache.root} to "
                    f"start cold)")
        ran = failed = 0
        records: List[Dict[str, object]] = []
        started = heartbeat.wall_clock()
        self.results_path.parent.mkdir(parents=True, exist_ok=True)
        heartbeat.write_manifest(
            self.heartbeat_dir,
            total_cells=len(cells),
            pending=len(pending),
            workers=self.max_workers,
            results=str(self.results_path),
            cached=len(cache_hits),
        )
        with self.results_path.open("w", encoding="utf-8") as sink:
            for cell, (stored, record) in cache_hits:
                line, record = encode_record(record, cell, stored)
                sink.write(line + "\n")
                records.append(record)
                say(f"[cache] {cell.describe()} "
                    f"-> {record.get('status')} (emitted from store)")
            sink.flush()
            for chunk, chunk_records in self._execute(pending):
                lines = []
                for cell, record in zip(chunk, chunk_records):
                    line, record = encode_record(record, cell)
                    sink.write(line + "\n")
                    records.append(record)
                    lines.append(line)
                    ran += 1
                    # "incomplete" is a measured outcome (a deadline
                    # legitimately missed — what many fault plans provoke on
                    # purpose), not a campaign failure.
                    if record.get("status") not in FINAL_STATUSES:
                        failed += 1
                    elapsed = heartbeat.wall_clock() - started
                    eta = elapsed / ran * (len(pending) - ran)
                    say(f"[{ran}/{len(pending)}] {cell.describe()} "
                        f"-> {record.get('status')} "
                        f"| elapsed {elapsed:,.0f}s eta {eta:,.0f}s")
                    logger.debug(
                        "cell %s: wall_s=%s peak_rss_kb=%s outcome=%s",
                        cell.cell_id, record.get("wall_s"),
                        record.get("peak_rss_kb"), record.get("status"))
                sink.flush()
                if self.cache is not None:
                    self.cache.put_summaries(lines)
        return CampaignOutcome(
            total_cells=len(cells),
            ran=ran,
            failed=failed,
            results_path=self.results_path,
            records=records,
            cached=len(cache_hits),
        )
