"""Differential run analytics: align two runs and name where they diverge.

The paper's argument is inherently differential — the same update plan is
safe under acknowledgment-based techniques and unsafe under timeouts — and
this module is the comparison primitive behind ``python -m repro.store
diff`` and the campaign report's ``--baseline`` mode.  Two layers:

* **summary level** — the flat :data:`~repro.session.record.SUMMARY_KEYS`
  view of each run (outcome, durations, drops, fault/recovery accounting,
  digest), compared key by key, plus the per-switch activation-gap deltas
  of the two runs' ledgers.  Works on any pair of runs, traced or not.
* **lifecycle level** — when both runs carry a
  :class:`~repro.obs.events.TraceLog`, their per-``(switch, xid)`` rule
  lifecycles (:func:`repro.analysis.timeline.rule_lifecycles`) are aligned
  phase by phase and the **first divergent lifecycle event** is named with
  its time, switch and phase — the same first-divergence discipline the
  determinism gate applies to raw kernel event streams.  Cross-run
  alignment on xids is sound because every session numbers its xids from
  1 (:func:`~repro.openflow.messages.rewind_xids`).

A diff of a traced run against a trace-off run degrades to the summary
level (``traced`` is ``False``; no divergence is reported) instead of
failing: comparability should never depend on both sides having paid for
observability.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.activation import LedgerRow
from repro.analysis.timeline import activation_gap_summary, rule_lifecycles
from repro.obs.events import (
    PHASE_ACK_RECEIVED,
    PHASE_ACK_SENT,
    PHASE_CONTROL_APPLIED,
    PHASE_HW_ACTIVATED,
    PHASE_MSG_SENT,
    PHASE_SWITCH_RECEIVED,
    PHASE_UPDATE_ISSUED,
    TraceLog,
)

#: Lifecycle phases paired with their :class:`RuleLifecycle` slot, in causal
#: order — the order divergences are reported in when timestamps tie.
PHASE_SLOTS: Tuple[Tuple[str, str], ...] = (
    (PHASE_UPDATE_ISSUED, "issued"),
    (PHASE_MSG_SENT, "msg_sent"),
    (PHASE_SWITCH_RECEIVED, "switch_received"),
    (PHASE_CONTROL_APPLIED, "control_applied"),
    (PHASE_ACK_SENT, "ack_sent"),
    (PHASE_ACK_RECEIVED, "ack_received"),
    (PHASE_HW_ACTIVATED, "hw_activated"),
)

#: Flat keys compared at the summary level, in report order.
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


def _fmt_ts(value: Optional[float]) -> str:
    return f"{value:.4f}s" if value is not None else "never"


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
        delta = (self.right_ts - self.left_ts) * 1000.0
        return f"time shifted {delta:+.2f}ms"

    def describe(self) -> str:
        return (f"first divergence at t={self.ts:.4f}s: rule "
                f"{self.switch}/{self.xid} phase {self.phase} — left "
                f"{_fmt_ts(self.left_ts)}, right {_fmt_ts(self.right_ts)} "
                f"({self.reason})")

    def as_dict(self) -> Dict[str, object]:
        return {
            "ts": self.ts,
            "switch": self.switch,
            "xid": self.xid,
            "phase": self.phase,
            "left_ts": self.left_ts,
            "right_ts": self.right_ts,
            "reason": self.reason,
        }


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
    best: Optional[Tuple[float, str, int, int, FirstDivergence]] = None
    for key in sorted(set(left_cycles) | set(right_cycles)):
        switch, xid = key
        left_entry = left_cycles.get(key)
        right_entry = right_cycles.get(key)
        for order, (phase, slot) in enumerate(PHASE_SLOTS):
            left_ts = getattr(left_entry, slot) if left_entry else None
            right_ts = getattr(right_entry, slot) if right_entry else None
            if left_ts == right_ts:
                continue
            anchor = min(ts for ts in (left_ts, right_ts) if ts is not None)
            candidate = (anchor, switch, xid, order, FirstDivergence(
                ts=anchor, switch=switch, xid=xid, phase=phase,
                left_ts=left_ts, right_ts=right_ts))
            if best is None or candidate[:4] < best[:4]:
                best = candidate
    return best[4] if best else None


def flat_summary(payload: Dict[str, object]) -> Dict[str, object]:
    """The flat summary view of any run payload.

    Accepts either a full :meth:`RunRecord.as_dict` payload (recognised by
    its ``schema`` stamp; converted through the record round trip) or a
    campaign JSONL record, which is already flat.
    """
    if "schema" in payload and "stats" in payload:
        from repro.session.record import RunRecord

        return RunRecord.from_dict(payload).summary()
    return dict(payload)


def trace_of(payload: Dict[str, object],
             trace: Optional[Dict[str, object]] = None) -> Optional[TraceLog]:
    """The :class:`TraceLog` of a payload, from it or the override dict."""
    raw = trace if trace is not None else payload.get("trace")
    if not raw:
        return None
    if isinstance(raw, TraceLog):
        return raw
    return TraceLog.from_dict(raw)


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
        return [key for key, (left, right) in self.summary.items()
                if left != right]

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
        for key in self.changed:
            left, right = self.summary[key]
            if key in ("technique", "scenario", "digest"):
                continue
            return f"{key}: {left} -> {right}"
        if self.changed:
            key = self.changed[0]
            left, right = self.summary[key]
            return f"{key}: {left} -> {right}"
        return "no observable differences"

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


def _gaps_of(payload: Dict[str, object]) -> Dict[str, Dict[str, float]]:
    """A campaign record's ``activation_gaps``, or a full payload's ledger's."""
    if "activation_gaps" in payload:
        return payload["activation_gaps"]
    return activation_gap_summary(
        LedgerRow(*row) for row in payload.get("ledger") or [])


def _gap_deltas(left_payload: Dict[str, object], right_payload: Dict[str, object]
                ) -> Dict[str, Dict[str, Tuple[object, object]]]:
    left_summary = _gaps_of(left_payload)
    right_summary = _gaps_of(right_payload)
    deltas: Dict[str, Dict[str, Tuple[object, object]]] = {}
    for switch in sorted(set(left_summary) | set(right_summary)):
        left_stats = left_summary.get(switch, {})
        right_stats = right_summary.get(switch, {})
        row: Dict[str, Tuple[object, object]] = {}
        for stat in ("rules", "early", "never", "min", "mean", "max"):
            left_value = left_stats.get(stat)
            right_value = right_stats.get(stat)
            if left_value is None and right_value is None:
                continue
            row[stat] = (left_value, right_value)
        if any(left != right for left, right in row.values()):
            deltas[switch] = row
    return deltas


def diff_runs(
    left_payload: Dict[str, object],
    right_payload: Dict[str, object],
    left_trace: Optional[Dict[str, object]] = None,
    right_trace: Optional[Dict[str, object]] = None,
    left_label: str = "left",
    right_label: str = "right",
) -> RunDiff:
    """Compare two runs; lifecycle level only when both carry traces."""
    left_flat = flat_summary(left_payload)
    right_flat = flat_summary(right_payload)
    diff = RunDiff(left_label=left_label, right_label=right_label)
    for key in SUMMARY_DIFF_KEYS:
        if key in left_flat or key in right_flat:
            diff.summary[key] = (left_flat.get(key), right_flat.get(key))
    diff.gap_deltas = _gap_deltas(left_payload, right_payload)

    left_log = trace_of(left_payload, left_trace)
    right_log = trace_of(right_payload, right_trace)
    if left_log is not None and right_log is not None:
        diff.traced = True
        diff.divergence = first_lifecycle_divergence(left_log, right_log)
    return diff


def _fmt_value(value: object) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


def render_run_diff(diff: RunDiff) -> str:
    """The human-readable diff report."""
    lines: List[str] = []
    header = f"Run diff — {diff.left_label} vs {diff.right_label}"
    lines.append(header)
    lines.append("=" * len(header))
    if diff.identical:
        lines.append(diff.explain())
    changed = diff.changed
    if changed:
        width = max(len(key) for key in changed)
        lines.append("Summary deltas (left -> right):")
        for key in changed:
            left, right = diff.summary[key]
            lines.append(f"  {key:<{width}}  "
                         f"{_fmt_value(left)} -> {_fmt_value(right)}")
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
        lines.append("Activation-gap deltas per switch (ack - hw "
                     "activation; negative = unsafe early ack):")
        for switch in sorted(diff.gap_deltas):
            stats = diff.gap_deltas[switch]
            parts = []
            for stat, (left, right) in stats.items():
                if left == right:
                    continue
                parts.append(f"{stat} {_fmt_value(left)} -> "
                             f"{_fmt_value(right)}")
            if parts:
                lines.append(f"  {switch}: " + ", ".join(parts))
    return "\n".join(lines) + "\n"
