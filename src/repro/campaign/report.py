"""Every text view of a run: what ``python -m repro.store show`` and
``python -m repro.campaign --status`` print.

The paper's argument is differential — the same update plan is safe under
acknowledgment-based techniques and unsafe under timeouts — and it is read
from four views, each over the :class:`~repro.store.store.RunView`
projection or the flat campaign lines:

* **one run** (:func:`render_run`): labels, summary and per-switch
  activation gaps, plus the rule-lifecycle timeline and fault overlay of a
  traced run;
* **two runs** (:func:`diff_runs`, :func:`render_run_diff`): summary and
  gap deltas and, when both carry traces, the first divergent lifecycle
  event.  Aligning on xids is sound because every session numbers its xids
  from 1 (:func:`~repro.openflow.messages.rewind_xids`); without both
  traces a diff stays at the summary level instead of failing;
* **a campaign's results** (:func:`render_report`): per-group summary,
  resilience, activation-gap, run-health, slowest and non-ok tables, and
  against a baseline the cells whose outcome moved;
* **a campaign's fleet** (:func:`render_status`): per-worker health from
  the heartbeat shards (:mod:`repro.campaign.heartbeat`), read-only and so
  safe mid-campaign, with an injectable ``now``.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.analysis.activation import LedgerRow
from repro.analysis.report import format_table
from repro.analysis.timeline import (
    PHASE_SLOTS,
    activation_gap_summary,
    fault_overlaps,
    rule_lifecycles,
)
from repro.campaign.heartbeat import (
    WorkerStatus,
    load_manifest,
    load_shards,
    resolve_heartbeat_dir,
    wall_now,
    worker_statuses,
)
from repro.faults.plan import NO_FAULTS
from repro.obs.events import TraceLog
from repro.recovery.policy import NO_RECOVERY
from repro.store.store import (
    FINAL_STATUSES,
    Resolved,
    RunView,
    load_records,
    run_labels,
)


# -- values -------------------------------------------------------------------

def _fmt(value: object, unit: str = "", none: str = "-") -> str:
    """A value as report text: ``none`` for ``None``, a float to four
    places, anything else as itself; ``unit`` follows a value."""
    if value is None:
        return none
    if isinstance(value, float):
        return f"{value:.4f}{unit}"
    return f"{value}{unit}"


def _fmt_ms(seconds: Optional[float], unit: str = "ms") -> str:
    """A gap in signed milliseconds (``-`` for ``None``)."""
    return "-" if seconds is None else f"{seconds * 1000.0:+.2f}{unit}"


# -- one run ------------------------------------------------------------------

#: Flat keys a run view lists and a diff compares, in report order.
SUMMARY_DIFF_KEYS: Tuple[str, ...] = (
    "technique",
    "scenario",
    "completed",
    "update_duration",
    "mean_update_time",
    "completion_time",
    "dropped_packets",
    "max_broken_time",
    "plan_size",
    "flows",
    "faults",
    "recovery",
    "digest",
)

_GAP_LEGEND = "(ack - hw activation; negative = unsafe early ack)"


def render_run(view: RunView) -> str:
    """The view of one run: labels, summary and activation gaps, plus its
    rule-lifecycle timeline and fault overlay when it carries a trace."""
    header = f"Run {view.label}"
    lines = [header, "=" * len(header)]
    meta, summary = view.meta, view.summary
    rows = {"outcome": meta["outcome"], "fault plan": meta["fault"],
            "recovery policy": meta["recovery"]}
    rows.update((key, summary[key]) for key in SUMMARY_DIFF_KEYS
                if key in summary)
    width = max(len(key) for key in rows)
    lines += [f"  {key:<{width}}  {_fmt(value)}"
              for key, value in rows.items()]
    trace = view.trace
    # A traced run with a ledger gets its gaps from the timeline below.
    if trace is None or not view.ledger:
        lines += [""] + _gap_summary_lines(view.gaps)
    text = "\n".join(lines) + "\n"
    if trace is not None:
        text += ("\n" + render_timeline_report(trace, view.ledger)
                 + "\n" + render_fault_overlay(trace))
    return text


def _gap_summary_lines(summary: Dict[str, Dict[str, float]]) -> List[str]:
    """The text of an :func:`activation_gap_summary`, one line per switch."""
    lines = [f"Per-switch activation-gap summary {_GAP_LEGEND}"]
    for switch, stats in summary.items():
        detail = (f"  {switch}: {int(stats['rules'])} rules, "
                  f"{int(stats['early'])} early, {int(stats['never'])} never")
        if "mean" in stats:
            detail += (f", gap min {_fmt_ms(stats['min'])} / "
                       f"mean {_fmt_ms(stats['mean'])} / "
                       f"max {_fmt_ms(stats['max'])}")
        lines.append(detail)
    return lines


def render_timeline_report(log: TraceLog, ledger: Iterable[LedgerRow]) -> str:
    """Per-rule lifecycle table of a traced run, gaps from its ledger."""
    header = f"Rule lifecycle timeline — {log.technique or 'unknown'}"
    lines = [header, "=" * len(header)]
    lifecycles = sorted(rule_lifecycles(log).items())
    if not lifecycles:
        lines.append("(no rule lifecycle events in trace)")
        return "\n".join(lines) + "\n"
    ledger = list(ledger)
    rows = {(row.switch, row.xid): row for row in ledger}
    lines.append(f"{'switch':<8} {'xid':>6} {'issued':>9} {'received':>9} "
                 f"{'acked':>9} {'hw-active':>9} {'gap':>10}  confirmed-by")

    def stamp(value: Optional[float]) -> str:
        return f"{value:9.4f}" if value is not None else f"{'-':>9}"

    for (switch, xid), entry in lifecycles:
        row = rows.get((switch, xid))
        if row is None or row.acked_at is None:
            gap = "-"
        elif row.activated_at is None:
            gap = "never"
        else:
            gap = _fmt_ms(row.acked_at - row.activated_at)
        lines.append(
            f"{switch:<8} {xid:>6} {stamp(entry.issued)} "
            f"{stamp(entry.switch_received)} {stamp(entry.ack_received)} "
            f"{stamp(entry.hw_activated)} {gap:>10}  {entry.confirmed_by}")
    lines.append("")
    lines += _gap_summary_lines(activation_gap_summary(ledger))
    return "\n".join(lines) + "\n"


def render_fault_overlay(log: TraceLog) -> str:
    """Fault activations interleaved with the rules they could affect."""
    lines = ["Fault overlay", "=" * len("Fault overlay")]
    overlaps = fault_overlaps(log)
    if not overlaps:
        lines.append("(no fault activations in trace)")
    for overlap in overlaps:
        rules = (", ".join(f"{switch}/{xid}"
                           for switch, xid in overlap.open_rules)
                 or "none")
        lines.append(f"t={overlap.ts:9.4f}  {overlap.detail:<32} "
                     f"@{overlap.switch or '*':<6} open rules: {rules}")
    return "\n".join(lines) + "\n"


# -- two runs -----------------------------------------------------------------

@dataclass
class FirstDivergence:
    """The first lifecycle event at which two runs disagree."""

    ts: float
    switch: str
    xid: int
    phase: str
    left_ts: Optional[float]
    right_ts: Optional[float]

    @property
    def reason(self) -> str:
        if self.left_ts is None:
            return "reached only on right"
        if self.right_ts is None:
            return "reached only on left"
        return f"time shifted {_fmt_ms(self.right_ts - self.left_ts)}"

    def describe(self) -> str:
        return (f"first divergence at t={self.ts:.4f}s: rule "
                f"{self.switch}/{self.xid} phase {self.phase} — left "
                f"{_fmt(self.left_ts, 's', 'never')}, right "
                f"{_fmt(self.right_ts, 's', 'never')} ({self.reason})")

    def as_dict(self) -> Dict[str, object]:
        return {**asdict(self), "reason": self.reason}


def first_lifecycle_divergence(left: TraceLog,
                               right: TraceLog) -> Optional[FirstDivergence]:
    """The earliest ``(switch, xid, phase)`` where the two traces disagree.

    Every phase slot present on exactly one side, or present on both at
    different times, is a discrepancy; the one anchored earliest in
    simulated time (ties broken by switch, xid, then causal phase order)
    is *the* first divergence.  ``None`` means the lifecycles agree
    exactly — which for two different techniques essentially never happens,
    and for a determinism double-run always should.
    """
    left_cycles = rule_lifecycles(left)
    right_cycles = rule_lifecycles(right)
    discrepancies = []
    for key in sorted(set(left_cycles) | set(right_cycles)):
        left_entry, right_entry = left_cycles.get(key), right_cycles.get(key)
        for order, (phase, slot) in enumerate(PHASE_SLOTS):
            left_ts = getattr(left_entry, slot) if left_entry else None
            right_ts = getattr(right_entry, slot) if right_entry else None
            if left_ts != right_ts:
                anchor = min(ts for ts in (left_ts, right_ts) if ts is not None)
                discrepancies.append(
                    (anchor, *key, order, phase, left_ts, right_ts))
    if not discrepancies:
        return None
    ts, switch, xid, _order, phase, left_ts, right_ts = min(discrepancies)
    return FirstDivergence(ts, switch, xid, phase, left_ts, right_ts)


@dataclass
class RunDiff:
    """Everything the differential comparison of two runs found."""

    left_label: str
    right_label: str
    #: ``key -> (left value, right value)`` for every compared summary key.
    summary: Dict[str, Tuple[object, object]] = field(default_factory=dict)
    #: ``switch -> stat -> (left, right)`` activation-gap deltas.
    gap_deltas: Dict[str, Dict[str, Tuple[object, object]]] = field(
        default_factory=dict)
    divergence: Optional[FirstDivergence] = None
    #: Whether *both* sides carried a trace (lifecycle level ran).
    traced: bool = False

    @property
    def changed(self) -> List[str]:
        """Keys whose values differ as printed (floats to four places)."""
        return [key for key, (left, right) in self.summary.items()
                if _fmt(left) != _fmt(right)]

    @property
    def identical(self) -> bool:
        left, right = self.summary.get("digest", (None, None))
        return left is not None and left == right

    def explain(self) -> str:
        """The one-line explanation (baseline tables, CLI summaries)."""
        if self.identical:
            digest = self.summary["digest"][0]
            return f"identical outcome (digest {digest})"
        if self.divergence is not None:
            return self.divergence.describe()
        # A moved outcome key explains more than the labels or the digest.
        keys = [key for key in self.changed
                if key not in ("technique", "scenario", "digest")]
        keys = keys or self.changed
        if not keys:
            return "no observable differences"
        left, right = self.summary[keys[0]]
        return f"{keys[0]}: {left} -> {right}"

    def as_dict(self) -> Dict[str, object]:
        return {
            "left": self.left_label,
            "right": self.right_label,
            "identical": self.identical,
            "traced": self.traced,
            "summary": {key: list(values)
                        for key, values in self.summary.items()},
            "changed": self.changed,
            "gap_deltas": {
                switch: {stat: list(values)
                         for stat, values in stats.items()}
                for switch, stats in self.gap_deltas.items()
            },
            # null is the "aligned, no divergence" marker consumers key on.
            "divergence": self.divergence.as_dict() if self.divergence else None,
            "explanation": self.explain(),
        }


def _gap_deltas(left_summary: Dict[str, Dict[str, float]],
                right_summary: Dict[str, Dict[str, float]]
                ) -> Dict[str, Dict[str, Tuple[object, object]]]:
    deltas: Dict[str, Dict[str, Tuple[object, object]]] = {}
    for switch in sorted(set(left_summary) | set(right_summary)):
        left_stats = left_summary.get(switch, {})
        right_stats = right_summary.get(switch, {})
        row = {stat: (left_stats.get(stat), right_stats.get(stat))
               for stat in ("rules", "early", "never", "min", "mean", "max")
               if stat in left_stats or stat in right_stats}
        if any(left != right for left, right in row.values()):
            deltas[switch] = row
    return deltas


def diff_runs(left: RunView, right: RunView) -> RunDiff:
    """Compare two runs; lifecycle level only when both carry traces."""
    left_flat, right_flat = left.summary, right.summary
    diff = RunDiff(left_label=left.label, right_label=right.label)
    for key in SUMMARY_DIFF_KEYS:
        if key in left_flat or key in right_flat:
            diff.summary[key] = (left_flat.get(key), right_flat.get(key))
    diff.gap_deltas = _gap_deltas(left.gaps, right.gaps)
    if left.trace is not None and right.trace is not None:
        diff.traced = True
        diff.divergence = first_lifecycle_divergence(left.trace, right.trace)
    return diff


def render_run_diff(diff: RunDiff) -> str:
    """The human-readable diff report."""
    header = f"Run diff — {diff.left_label} vs {diff.right_label}"
    lines = [header, "=" * len(header)]
    if diff.identical:
        lines.append(diff.explain())
    changed = diff.changed
    if changed:
        width = max(len(key) for key in changed)
        lines.append("Summary deltas (left -> right):")
        for key in changed:
            left, right = diff.summary[key]
            lines.append(f"  {key:<{width}}  {_fmt(left)} -> {_fmt(right)}")
    elif not diff.identical:
        lines.append("(no summary-level differences)")
    lines.append("")
    if not diff.traced:
        lines.append("(no lifecycle alignment: at least one side has no "
                     "trace — re-run with trace=True for the first "
                     "divergent lifecycle event)")
    elif diff.divergence is not None:
        lines.append(diff.divergence.describe())
    else:
        lines.append("rule lifecycles are identical on both sides")
    if diff.gap_deltas:
        lines.append("")
        lines.append(f"Activation-gap deltas per switch {_GAP_LEGEND}:")
        for switch in sorted(diff.gap_deltas):
            # A switch is in ``gap_deltas`` only when one of its stats moved.
            lines.append(f"  {switch}: " + ", ".join(
                f"{stat} {_fmt(left)} -> {_fmt(right)}"
                for stat, (left, right) in diff.gap_deltas[switch].items()
                if left != right))
    return "\n".join(lines) + "\n"


# -- a campaign's results -----------------------------------------------------

#: Scenario metric keys that count safety violations (summed per group).
VIOLATION_METRICS = (
    "http_bypassing_firewall",
    "residual_drained_deliveries",
)

#: Headers of the per-(scenario, technique, fault) summary table.
AGGREGATE_HEADERS = ["scenario", "technique", "fault", "cells",
                     "mean duration [s]", "mean update time [s]", "dropped",
                     "violations", "digests"]

#: Headers of the resilience table.
RESILIENCE_HEADERS = ["fault", "technique", "runs", "completed",
                      "mean duration [s]", "dropped", "violations",
                      "max broken [s]", "fault events", "recovered",
                      "reinstalled"]

#: Headers of the activation-gap table.
ACTIVATION_GAP_HEADERS = [
    "technique", "fault", "rules", "early acks", "never active",
    "mean gap [ms]", "worst gap [ms]",
]

#: Headers of the run-health table.
RUN_HEALTH_HEADERS = [
    "worker pid", "cells", "ok", "incomplete", "error",
    "wall [s]", "mean wall [s]", "peak rss [MB]",
]

#: Headers of the differential resilience table (``store show A.jsonl B``).
DIFFERENTIAL_HEADERS = [
    "scenario", "technique", "fault", "seed", "outcome", "digest",
    "what changed",
]


def _fault_label(record: Dict[str, object]) -> str:
    """The record's group label: fault plan, plus recovery policy when armed.

    A recovery-armed cell never merges with its unrecovered twin — the
    resilience table renders them as adjacent rows (same fault prefix), which
    is the recovered-vs-unrecovered comparison the campaign exists to show —
    and the ``digests`` determinism column never mixes the two populations.
    """
    fault, recovery = run_labels(record)
    label = "none" if fault.lower() in NO_FAULTS else fault
    if recovery.lower() not in NO_RECOVERY:
        label += f" +recovery={recovery}"
    return label


def has_fault_axis(records: List[Dict[str, object]]) -> bool:
    """Whether any record ran with an armed fault plan."""
    return any(_fault_label(record) != "none" for record in records)


def _group(records: List[Dict[str, object]],
           key: Callable[[Dict[str, object]], object],
           statuses: Optional[Tuple[str, ...]] = FINAL_STATUSES,
           ) -> List[Tuple[object, List[Dict[str, object]]]]:
    """The records with a status in ``statuses`` (any, for ``None``) and a
    key, grouped by ``key(record)`` in key order; a ``None`` key skips the
    record."""
    groups: Dict[object, List[Dict[str, object]]] = defaultdict(list)
    for record in records:
        if statuses is not None and record.get("status") not in statuses:
            continue
        group_key = key(record)
        if group_key is not None:
            groups[group_key].append(record)
    return sorted(groups.items())


def _mean_of(group: List[Dict[str, object]], key: str) -> object:
    """The mean of ``key`` over the records that have it, else ``-``."""
    values = [record[key] for record in group if record.get(key) is not None]
    return sum(values) / len(values) if values else "-"


def _violations(group: List[Dict[str, object]]) -> int:
    return sum(int((record.get("metrics") or {}).get(key, 0))
               for record in group for key in VIOLATION_METRICS)


def _dropped(group: List[Dict[str, object]]) -> int:
    return sum(int(record.get("dropped_packets") or 0) for record in group)


def aggregate(records: List[Dict[str, object]]) -> List[List[object]]:
    """Per-(scenario, technique, fault) rows over every successful record.

    The ``digests`` column counts distinct result digests per group: for a
    grid with one seed per group it doubles as a determinism check.  The
    fault label is part of the group key so a faulted cell never merges
    with its fault-free control — the ``digests`` column stays a valid
    determinism check and the means are not cross-fault averages.
    """
    return [
        [scenario, technique, fault, len(group),
         _mean_of(group, "update_duration"),
         _mean_of(group, "mean_update_time"),
         _dropped(group), _violations(group),
         len({r["digest"] for r in group if r.get("digest")})]
        for (scenario, technique, fault), group in _group(
            records, lambda r: (r["scenario"], r["technique"],
                                _fault_label(r)), statuses=("ok",))
    ]


def resilience(records: List[Dict[str, object]]) -> List[List[object]]:
    """Per-(fault, technique) correctness rows over every finished record.

    One row per group: how often the update completed, how long it took,
    and what correctness damage — dropped packets, safety violations,
    broken time — the fault caused, next to the number of fault activations
    that caused it.  Fault-free groups (label ``"none"``) serve as the
    control rows.  Unlike :func:`aggregate`, ``incomplete`` records are
    *included*: an update missing its deadline is precisely the failure
    mode most fault models provoke, so dropping those runs would hide the
    result.

    The last two columns report the recovery subsystem: ``recovered`` counts
    runs whose armed recovery manager reported full reconvergence (``-``
    when no run of the group armed recovery — the pre-recovery rendering),
    and ``reinstalled`` sums the rules replayed from shadow state.
    """
    rows: List[List[object]] = []
    for (fault, technique), group in _group(
            records, lambda r: (_fault_label(r), r["technique"])):
        recoveries = [r["recovery"] for r in group if r.get("recovery")]
        rows.append([
            fault,
            technique,
            len(group),
            f"{sum(1 for r in group if r.get('completed'))}/{len(group)}",
            _mean_of(group, "update_duration"),
            _dropped(group),
            _violations(group),
            max((r.get("max_broken_time") or 0.0 for r in group), default=0.0),
            sum(sum((r.get("faults") or {}).values()) for r in group),
            (f"{sum(1 for r in recoveries if r.get('reconverged'))}"
             f"/{len(recoveries)}" if recoveries else "-"),
            (sum(int(r.get("rules_reinstalled") or 0) for r in recoveries)
             if recoveries else "-"),
        ])
    return rows


def activation_gaps(records: List[Dict[str, object]]) -> List[List[object]]:
    """Per-(technique, fault) activation-gap rows over every finished record.

    Aggregates each record's per-switch gap summary (see
    :func:`repro.analysis.timeline.activation_gap_summary`) across cells and
    switches: total rules, unsafe early acknowledgments, rules never
    activated, and the worst and mean finite gap in milliseconds.  The mean
    is over every activated rule (``rules - never``), so a switch weighs as
    many rules as it activated.  This is the resilience table's time axis —
    not just *whether* a technique stayed correct under a fault, but by how
    much its acks led or trailed the hardware.
    """
    rows: List[List[object]] = []
    for (technique, fault), group in _group(
            records, lambda r: ((r["technique"], _fault_label(r))
                                if r.get("activation_gaps") else None)):
        rules = early = never = activated = 0
        gap_sum = 0.0
        worst: Optional[float] = None
        for record in group:
            for stats in record["activation_gaps"].values():
                count, lost = stats["rules"], stats["never"]
                rules += count
                early += stats["early"]
                never += lost
                if "mean" in stats:
                    gap_sum += stats["mean"] * (count - lost)
                    activated += count - lost
                    worst = (stats["min"] if worst is None
                             else min(worst, stats["min"]))
        rows.append([
            technique,
            fault,
            rules,
            early,
            never,
            _fmt_ms(gap_sum / activated if activated else None, ""),
            _fmt_ms(worst, ""),
        ])
    return rows


def run_health(records: List[Dict[str, object]]) -> List[List[object]]:
    """Per-worker runtime rows over every record carrying telemetry.

    Groups by the pid each record ran under, so an unbalanced fleet (one
    worker eating all the slow cells, one worker ballooning in RSS) shows
    up directly in the report — the after-the-fact complement of the live
    ``--status`` monitor.
    """
    rows: List[List[object]] = []
    for pid, group in _group(
            records, lambda r: (int(r.get("worker_pid", 0))
                                if r.get("wall_s") is not None else None),
            statuses=None):
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


#: The first four headers of the slowest-cells and non-ok-cells tables.
CELL_HEADERS = ["scenario", "technique", "seed", "status"]


def _cell_row(record: Dict[str, object], last: object) -> List[object]:
    config = record.get("config") or {}
    return [config.get("scenario", "?"), config.get("technique", "?"),
            config.get("seed", "?"), record.get("status", "?"), last]


def slowest_cells(records: List[Dict[str, object]],
                  top: int = 5) -> List[List[object]]:
    """The ``top`` slowest cells by recorded wall seconds, descending."""
    timed = [record for record in records if record.get("wall_s") is not None]
    timed.sort(key=lambda r: (-float(r["wall_s"]), str(r.get("cell_id"))))
    return [_cell_row(record, f"{float(record['wall_s']):.2f}")
            for record in timed[:max(0, top)]]


def failures(records: List[Dict[str, object]]) -> List[List[object]]:
    """One row per non-ok record."""
    return [_cell_row(record, str(record.get("error", ""))[:60])
            for record in records if record.get("status") != "ok"]


def differential(
    records: List[Dict[str, object]],
    baseline: Dict[str, Dict[str, object]],
) -> Tuple[List[List[object]], Dict[str, int]]:
    """Changed-cell rows plus the unchanged/new/missing accounting.

    A cell is *changed* when its outcome status or digest differs from the
    baseline record of the same ``cell_id``; a cell that errored on one side
    is changed too, and its row carries the error, as does the row of an
    errored cell the baseline lacks (a store directory keeps no ``error``
    cell).  Otherwise the last column is the run diff's one-line
    explanation of what moved.  Rows come
    in (scenario, technique, fault, seed) order, seeds as numbers.
    """
    counts = {"unchanged": 0, "changed": 0, "new": 0, "missing": 0}
    # cell_id -> (sort key, row prefix, line)
    current: Dict[str, Tuple[tuple, List[object], Dict[str, object]]] = {}
    for record in records:
        if record.get("cell_id"):
            meta = RunView(record).meta
            seed = meta["seed"]
            prefix = [meta["scenario"] or "?", meta["technique"] or "?",
                      _fault_label(record), "?" if seed is None else seed]
            order = (str(prefix[0]), str(prefix[1]), prefix[2], int(seed or 0))
            current[str(record["cell_id"])] = (order, prefix, record)
    rows: List[List[object]] = []
    for cell_id, (_order, prefix, record) in sorted(
            current.items(), key=lambda item: item[1][0]):
        base = baseline.get(cell_id)
        if base is None:
            counts["new"] += 1
            # A store keeps no ``error`` cell, so a cell that errored is new
            # against any store; its row still says why it failed.
            explanation = "new cell (not in baseline)"
            if record.get("status") not in FINAL_STATUSES:
                explanation += f": {record.get('error') or 'no error text'}"
            rows.append(prefix + [str(record.get("status")), "-", explanation])
            continue
        same_status = base.get("status") == record.get("status")
        same_digest = base.get("digest") == record.get("digest")
        if same_status and same_digest:
            counts["unchanged"] += 1
            continue
        counts["changed"] += 1
        outcome = (str(record.get("status")) if same_status
                   else f"{base.get('status')} -> {record.get('status')}")
        digest = ("=" if same_digest else
                  f"{_fmt(base.get('digest'))} -> {_fmt(record.get('digest'))}")
        failed = [side for side in (record, base)
                  if side.get("status") not in FINAL_STATUSES]
        if failed:
            explanation = str(failed[0].get("error") or "no error text")
        else:
            explanation = diff_runs(RunView(base, "baseline"),
                                    RunView(record, "current")).explain()
        rows.append(prefix + [outcome, digest, explanation])
    counts["missing"] = sum(1 for cell_id in baseline if cell_id not in current)
    return rows, counts


def render_report(results_path: Path, baseline: Optional[Resolved] = None,
                  cached: int = 0) -> str:
    """The campaign's aggregated plain-text report.

    With ``baseline`` — the cells :meth:`~repro.store.store.RunStore.read`
    resolved from another results file or a store directory — the report
    ends with the differential table of the cells whose outcome moved.
    ``cached`` is the just-finished run's store-cache hit count (only
    ``campaign run`` knows it); ``store show RESULTS`` renders with the
    default ``0`` so re-aggregating a results file stays byte-identical no
    matter how its cells were produced.
    """
    records = load_records(results_path)
    if not records:
        return f"no campaign records in {results_path}"
    health_title = "Run health — per-worker runtime (RSS ratchets per worker)"
    if cached:
        health_title += (f"; {cached} cells emitted from the store cache "
                         "(telemetry from their original runs)")
    # (headers, rows, title) of the tables shown only when they have rows.
    tables = [
        (RESILIENCE_HEADERS, resilience(records) if has_fault_axis(records)
         else [], "Resilience — correctness under fault (incomplete runs "
                  "included)"),
        (ACTIVATION_GAP_HEADERS, activation_gaps(records),
         "Activation gaps — ack vs hardware activation (negative = unsafe "
         "early ack)"),
        (RUN_HEALTH_HEADERS, run_health(records), health_title),
        (CELL_HEADERS + ["wall [s]"], slowest_cells(records), "Slowest cells"),
        (CELL_HEADERS + ["error"], failures(records),
         "Non-ok cells (incomplete = update missed its deadline)"),
    ]
    sections = [format_table(
        AGGREGATE_HEADERS, aggregate(records),
        title=f"Campaign report — {results_path} ({len(records)} records)")]
    sections += [format_table(headers, rows, title=title)
                 for headers, rows, title in tables if rows]
    if baseline is not None and not baseline.cells:
        sections.append(f"no baseline records in {Path(baseline.ref)}")
    elif baseline is not None:
        rows, counts = differential(records, baseline.cells)
        title = (f"Differential resilience — {results_path} vs "
                 f"{Path(baseline.ref)} ({counts['unchanged']} unchanged, "
                 f"{counts['changed']} changed, {counts['new']} new, "
                 f"{counts['missing']} only in baseline)")
        sections.append(
            format_table(DIFFERENTIAL_HEADERS, rows, title=title) if rows
            else f"{title}\n(every matched cell has an identical outcome)")
    return "\n\n".join(sections)


# -- a campaign's fleet -------------------------------------------------------

#: Headers of the per-worker fleet table.
WORKER_HEADERS = ["worker", "state", "cells", "cells/s", "outcomes",
                  "rss [MB]", "current cell", "on it [s]", "last beat [s]"]


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
