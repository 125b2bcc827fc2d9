"""Aggregation of campaign result files.

Campaign records store the unified flat keys of
:data:`repro.session.record.SUMMARY_KEYS` (``RunRecord.summary()`` output)
— one schema shared with every other run path — and this module feeds them
into the plain-text reporting machinery of :mod:`repro.analysis.report`:
one per-(scenario, technique, fault) summary table over all cells, a
resilience table when any cell armed faults, plus a violation table for the
scenarios that define safety metrics.  The ``digests`` column counts
distinct result digests per group: for a grid with one seed per group it
doubles as a determinism check.
"""

from __future__ import annotations

from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple

from repro.analysis.report import (
    RESILIENCE_HEADERS,
    VIOLATION_METRICS,
    correctness_under_fault_rows,
    format_table,
)
from repro.campaign.runner import FINAL_STATUSES, load_records
from repro.faults.plan import NO_FAULTS, FaultPlan
from repro.recovery.policy import NO_RECOVERY, RecoveryPolicy


def _mean(values: List[float]) -> Optional[float]:
    return sum(values) / len(values) if values else None


def aggregate(records: List[Dict[str, object]]) -> List[List[object]]:
    """Per-(scenario, technique, fault) rows over every successful record.

    The fault label is part of the group key so a faulted cell never merges
    with its fault-free control — the ``digests`` column stays a valid
    determinism check and the means are not cross-fault averages.
    """
    groups: Dict[Tuple[str, str, str], List[Dict[str, object]]] = defaultdict(list)
    for record in records:
        if record.get("status") != "ok":
            continue
        groups[(record["scenario"], record["technique"],
                _fault_label(record))].append(record)

    rows: List[List[object]] = []
    for (scenario, technique, fault), group in sorted(groups.items()):
        durations = [r["update_duration"] for r in group
                     if r.get("update_duration") is not None]
        update_times = [r["mean_update_time"] for r in group
                        if r.get("mean_update_time") is not None]
        dropped = [r.get("dropped_packets", 0) for r in group]
        digests = {r["digest"] for r in group if r.get("digest")}
        violations = 0
        for record in group:
            metrics = record.get("metrics") or {}
            violations += sum(int(metrics.get(key, 0)) for key in VIOLATION_METRICS)
        rows.append([
            scenario,
            technique,
            fault,
            len(group),
            _mean(durations) if durations else "-",
            _mean(update_times) if update_times else "-",
            sum(dropped),
            violations,
            len(digests),
        ])
    return rows


def run_labels(axes: Mapping[str, object],
               session: Mapping[str, object]) -> Tuple[str, str]:
    """The ``(fault, recovery)`` labels of one run.

    ``axes`` is a campaign cell's ``config`` (``{}`` for a run outside a
    campaign) and ``session`` the run's ``SessionSpec.config()`` encoding.
    An axis the cell sets is its label verbatim; an absent axis is labelled
    by what the run actually armed, so a scenario that arms its own faults
    (``rolling-upgrade``) is never mistaken for the fault-free control.
    """
    fault = axes.get("fault")
    if fault is None:
        fault = FaultPlan.from_dict(session.get("faults")).to_string()
    recovery = axes.get("recovery")
    if recovery is None:
        policy = RecoveryPolicy.from_dict(
            (session.get("knobs") or {}).get("recovery"))
        recovery = policy.to_string() if policy is not None else "off"
    return str(fault or "none"), str(recovery or "off")


def _fault_label(record: Dict[str, object]) -> str:
    """The record's group label: fault plan, plus recovery policy when armed.

    A recovery-armed cell never merges with its unrecovered twin — the
    resilience table renders them as adjacent rows (same fault prefix), which
    is the recovered-vs-unrecovered comparison the campaign exists to show —
    and the ``digests`` determinism column never mixes the two populations.
    """
    fault, recovery = run_labels(record.get("config") or {},
                                 record.get("session") or {})
    label = "none" if fault.lower() in NO_FAULTS else fault
    if recovery.lower() not in NO_RECOVERY:
        label += f" +recovery={recovery}"
    return label


def has_fault_axis(records: List[Dict[str, object]]) -> bool:
    """Whether any record ran with an armed fault plan."""
    return any(_fault_label(record) != "none" for record in records)


def resilience(records: List[Dict[str, object]]) -> List[List[object]]:
    """Per-(fault, technique) correctness rows over every finished record.

    Unlike :func:`aggregate`, ``incomplete`` records are *included*: an
    update missing its deadline is precisely the failure mode most fault
    models provoke, so dropping those runs would hide the result.
    """
    groups: Dict[Tuple[str, str], List[Dict[str, object]]] = defaultdict(list)
    for record in records:
        if record.get("status") not in FINAL_STATUSES:
            continue
        groups[(_fault_label(record), record["technique"])].append(record)
    return correctness_under_fault_rows(groups)


def activation_gaps(records: List[Dict[str, object]]) -> List[List[object]]:
    """Per-(technique, fault) activation-gap rows over every finished record.

    Aggregates each record's per-switch gap summary (see
    :func:`repro.analysis.timeline.activation_gap_summary`) across cells and
    switches: total rules, unsafe early acknowledgments, rules never
    activated, and the worst/mean finite gap in milliseconds.  This is the
    resilience table's time axis — not just *whether* a technique stayed
    correct under a fault, but by how much its acks led or trailed the
    hardware.
    """
    groups: Dict[Tuple[str, str], List[Dict[str, object]]] = defaultdict(list)
    for record in records:
        if record.get("status") not in FINAL_STATUSES:
            continue
        gaps = record.get("activation_gaps")
        if not gaps:
            continue
        groups[(record["technique"], _fault_label(record))].append(gaps)

    rows: List[List[object]] = []
    for (technique, fault), summaries in sorted(groups.items()):
        rules = early = never = 0
        means: List[float] = []
        worst: Optional[float] = None
        for summary in summaries:
            for stats in summary.values():
                rules += int(stats.get("rules", 0))
                early += int(stats.get("early", 0))
                never += int(stats.get("never", 0))
                if "mean" in stats:
                    means.append(float(stats["mean"]))
                if "min" in stats:
                    value = float(stats["min"])
                    worst = value if worst is None else min(worst, value)
        rows.append([
            technique,
            fault,
            rules,
            early,
            never,
            f"{_mean(means) * 1000.0:+.2f}" if means else "-",
            f"{worst * 1000.0:+.2f}" if worst is not None else "-",
        ])
    return rows


#: Headers of the activation-gap table.
ACTIVATION_GAP_HEADERS = [
    "technique", "fault", "rules", "early acks", "never active",
    "mean gap [ms]", "worst gap [ms]",
]


def has_health_telemetry(records: List[Dict[str, object]]) -> bool:
    """Whether any record carries per-cell runtime telemetry (``wall_s``)."""
    return any(record.get("wall_s") is not None for record in records)


#: Headers of the run-health table.
RUN_HEALTH_HEADERS = [
    "worker pid", "cells", "ok", "incomplete", "error",
    "wall [s]", "mean wall [s]", "peak rss [MB]",
]


def run_health(records: List[Dict[str, object]]) -> List[List[object]]:
    """Per-worker runtime rows over every record carrying telemetry.

    Groups by the pid each record ran under, so an unbalanced fleet (one
    worker eating all the slow cells, one worker ballooning in RSS) shows
    up directly in the report — the after-the-fact complement of the live
    ``--status`` monitor.
    """
    groups: Dict[int, List[Dict[str, object]]] = defaultdict(list)
    for record in records:
        if record.get("wall_s") is None:
            continue
        groups[int(record.get("worker_pid", 0))].append(record)

    rows: List[List[object]] = []
    for pid, group in sorted(groups.items()):
        walls = [float(r["wall_s"]) for r in group]
        statuses = [str(r.get("status")) for r in group]
        rss = max(int(r.get("peak_rss_kb", 0)) for r in group)
        rows.append([
            pid or "?",
            len(group),
            statuses.count("ok"),
            statuses.count("incomplete"),
            len(group) - statuses.count("ok") - statuses.count("incomplete"),
            f"{sum(walls):.1f}",
            f"{sum(walls) / len(walls):.2f}",
            f"{rss / 1024.0:.0f}" if rss else "-",
        ])
    return rows


def slowest_cells(records: List[Dict[str, object]],
                  top: int = 5) -> List[List[object]]:
    """The ``top`` slowest cells by recorded wall seconds, descending."""
    timed = [record for record in records if record.get("wall_s") is not None]
    timed.sort(key=lambda r: (-float(r["wall_s"]), str(r.get("cell_id"))))
    rows: List[List[object]] = []
    for record in timed[:max(0, top)]:
        config = record.get("config") or {}
        rows.append([
            config.get("scenario", "?"),
            config.get("technique", "?"),
            config.get("seed", "?"),
            record.get("status", "?"),
            f"{float(record['wall_s']):.2f}",
        ])
    return rows


def failures(records: List[Dict[str, object]]) -> List[List[object]]:
    """One row per non-ok record."""
    rows = []
    for record in records:
        if record.get("status") == "ok":
            continue
        config = record.get("config") or {}
        rows.append([
            config.get("scenario", "?"),
            config.get("technique", "?"),
            config.get("seed", "?"),
            record.get("status", "?"),
            str(record.get("error", ""))[:60],
        ])
    return rows


#: Headers of the ``--baseline`` differential resilience table.
DIFFERENTIAL_HEADERS = [
    "scenario", "technique", "fault", "seed", "outcome", "digest",
    "what changed",
]


def baseline_records(baseline: Path) -> Dict[str, Dict[str, object]]:
    """``cell_id -> record`` from a results file *or* a run-store directory.

    A directory with an ``objects/`` layout is read as a
    :class:`~repro.store.RunStore`: each cell's digest-verified summary,
    as :meth:`~repro.store.RunStore.cached_record` serves it; anything else
    is treated as a JSONL results file.
    """
    baseline = Path(baseline)
    if baseline.is_dir() and (baseline / "objects").is_dir():
        from repro.store import RunStore

        store = RunStore(baseline)
        return {
            cell_id: hit
            for obj in store.iter_objects()
            for cell_id in obj.get("summaries") or {}
            if (hit := store.cached_record(cell_id)) is not None
        }
    return {
        str(record["cell_id"]): record
        for record in load_records(baseline)
        if record.get("status") in FINAL_STATUSES and "cell_id" in record
    }


def differential(
    records: List[Dict[str, object]],
    baseline: Dict[str, Dict[str, object]],
) -> Tuple[List[List[object]], Dict[str, int]]:
    """Changed-cell rows plus the unchanged/new/missing accounting.

    A cell is *changed* when its outcome status or digest differs from the
    baseline record of the same ``cell_id``; the last column carries the
    diff tool's one-line explanation of what moved.
    """
    from repro.analysis.diff import diff_runs

    counts = {"unchanged": 0, "changed": 0, "new": 0, "missing": 0}
    rows: List[List[object]] = []
    seen: set = set()
    current = [record for record in records
               if record.get("status") in FINAL_STATUSES
               and record.get("cell_id")]
    current.sort(key=lambda r: (str(r.get("scenario")), str(r.get("technique")),
                                _fault_label(r), str(r.get("seed"))))
    for record in current:
        cell_id = str(record["cell_id"])
        seen.add(cell_id)
        base = baseline.get(cell_id)
        prefix = [record.get("scenario", "?"), record.get("technique", "?"),
                  _fault_label(record), record.get("seed", "?")]
        if base is None:
            counts["new"] += 1
            rows.append(prefix + [str(record.get("status")), "-",
                                  "new cell (not in baseline)"])
            continue
        same_status = base.get("status") == record.get("status")
        same_digest = base.get("digest") == record.get("digest")
        if same_status and same_digest:
            counts["unchanged"] += 1
            continue
        counts["changed"] += 1
        outcome = (str(record.get("status")) if same_status
                   else f"{base.get('status')} -> {record.get('status')}")
        digest = ("=" if same_digest
                  else f"{base.get('digest')} -> {record.get('digest')}")
        explanation = diff_runs(base, record, left_label="baseline",
                                right_label="current").explain()
        rows.append(prefix + [outcome, digest, explanation])
    counts["missing"] = sum(1 for cell_id in baseline if cell_id not in seen)
    return rows, counts


def render_differential_report(results_path: Path, baseline_path: Path) -> str:
    """The differential resilience table against a baseline store/results."""
    records = load_records(results_path)
    if not records:
        return f"no campaign records in {results_path}"
    baseline = baseline_records(Path(baseline_path))
    if not baseline:
        return f"no baseline records in {baseline_path}"
    rows, counts = differential(records, baseline)
    summary = (f"{counts['unchanged']} unchanged, {counts['changed']} "
               f"changed, {counts['new']} new, {counts['missing']} only in "
               f"baseline")
    title = (f"Differential resilience — {results_path} vs "
             f"{baseline_path} ({summary})")
    if not rows:
        return f"{title}\n(every matched cell has an identical outcome)"
    return format_table(DIFFERENTIAL_HEADERS, rows, title=title)


def render_report(results_path: Path, cached: int = 0) -> str:
    """The campaign's aggregated plain-text report.

    ``cached`` is the just-finished run's store-cache hit count (only the
    ``run`` subcommand knows it); the standalone ``report`` subcommand
    renders with the default ``0`` so re-aggregating a results file stays
    byte-identical no matter how its cells were produced.
    """
    records = load_records(results_path)
    if not records:
        return f"no campaign records in {results_path}"
    sections = [
        format_table(
            ["scenario", "technique", "fault", "cells", "mean duration [s]",
             "mean update time [s]", "dropped", "violations", "digests"],
            aggregate(records),
            title=f"Campaign report — {results_path} ({len(records)} records)",
        )
    ]
    if has_fault_axis(records):
        sections.append(format_table(
            RESILIENCE_HEADERS,
            resilience(records),
            title="Resilience — correctness under fault (incomplete runs included)",
        ))
    gap_rows = activation_gaps(records)
    if gap_rows:
        sections.append(format_table(
            ACTIVATION_GAP_HEADERS,
            gap_rows,
            title="Activation gaps — ack vs hardware activation "
                  "(negative = unsafe early ack)",
        ))
    if has_health_telemetry(records):
        health_title = ("Run health — per-worker runtime "
                        "(RSS ratchets per worker)")
        if cached:
            health_title += (f"; {cached} cells emitted from the store "
                             "cache (telemetry from their original runs)")
        sections.append(format_table(
            RUN_HEALTH_HEADERS,
            run_health(records),
            title=health_title,
        ))
        sections.append(format_table(
            ["scenario", "technique", "seed", "status", "wall [s]"],
            slowest_cells(records),
            title="Slowest cells",
        ))
    failed = failures(records)
    if failed:
        sections.append(format_table(
            ["scenario", "technique", "seed", "status", "error"],
            failed,
            title="Non-ok cells (incomplete = update missed its deadline)",
        ))
    return "\n\n".join(sections)
