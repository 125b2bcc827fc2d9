"""Per-rule lifecycle timelines and the per-switch activation-gap summary.

:func:`rule_lifecycles` reads the full trace of a session and reconstructs
every rule's lifecycle — issued, sent, received, applied to the control
plane, acknowledged, activated in hardware — as one :class:`RuleLifecycle`
per ``(switch, xid)``: the phase view that first-divergence alignment
(:mod:`repro.analysis.diff`) and the fault overlay need.

The headline quantity, the **activation gap**

    ``acked_at - activated_at``

per rule, with the paper's sign convention (negative = the controller was
told the rule was active before packets could hit it — the unsafe early
acknowledgment; positive = wasted waiting time), comes from the run's
activation ledger (:mod:`repro.analysis.activation`), which every run has,
traced or not.  :func:`activation_gap_summary` condenses it per switch;
rules acknowledged but *never* activated are counted separately.

Renderers produce the per-rule timeline report and the fault-overlay view
(what each armed fault model was doing while rules were in flight).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.analysis.activation import LedgerRow
from repro.obs.events import (
    PHASE_ACK_RECEIVED,
    PHASE_ACK_SENT,
    PHASE_CONTROL_APPLIED,
    PHASE_FAULT,
    PHASE_HW_ACTIVATED,
    PHASE_MSG_SENT,
    PHASE_SWITCH_RECEIVED,
    PHASE_UPDATE_ISSUED,
    TraceEvent,
    TraceLog,
)


@dataclass
class RuleLifecycle:
    """The traced lifecycle of one rule modification on one switch."""

    switch: str
    xid: int
    issued: Optional[float] = None
    msg_sent: Optional[float] = None
    switch_received: Optional[float] = None
    control_applied: Optional[float] = None
    ack_sent: Optional[float] = None
    ack_received: Optional[float] = None
    hw_activated: Optional[float] = None
    #: Who confirmed the rule (technique detail on the ack-sent event).
    confirmed_by: str = ""


def rule_lifecycles(log: TraceLog) -> Dict[Tuple[str, int], RuleLifecycle]:
    """Reconstruct every ``(switch, xid)`` lifecycle from a trace.

    Slots keep the *first* occurrence of each phase (re-activations of the
    same xid — rule overwrites, fault-induced re-applies — do not move the
    original timestamps), matching how
    :func:`repro.analysis.activation.activation_ledger` reads the apply
    log.  ``msg-sent`` events carry the channel name (``ctl-<switch>``
    or ``<proxy>-<switch>``), so they are matched to a lifecycle by suffix.
    """
    lifecycles: Dict[Tuple[str, int], RuleLifecycle] = {}
    #: Lifecycles sharing an xid, in creation (= dict) order, so a channel
    #: send only looks at the candidates it could match.
    by_xid: Dict[int, List[RuleLifecycle]] = {}
    sends: List[TraceEvent] = []
    slot_by_phase = {
        PHASE_UPDATE_ISSUED: "issued",
        PHASE_SWITCH_RECEIVED: "switch_received",
        PHASE_CONTROL_APPLIED: "control_applied",
        PHASE_ACK_SENT: "ack_sent",
        PHASE_ACK_RECEIVED: "ack_received",
        PHASE_HW_ACTIVATED: "hw_activated",
    }

    for event in log.events:
        xid = event.xid
        if xid is None:
            continue
        if event.phase == PHASE_MSG_SENT:
            sends.append(event)
            continue
        slot = slot_by_phase.get(event.phase)
        if slot is None or not event.switch:
            continue
        entry = lifecycles.get((event.switch, xid))
        if entry is None:
            entry = lifecycles[event.switch, xid] = RuleLifecycle(
                switch=event.switch, xid=xid)
            by_xid.setdefault(xid, []).append(entry)
        if getattr(entry, slot) is None:
            setattr(entry, slot, event.ts)
            if event.phase == PHASE_ACK_SENT and event.detail:
                entry.confirmed_by = event.detail

    # Channel sends, matched once every (switch, xid) pair is known.  A
    # channel named ``<anything>-<switch>`` carries that switch's control
    # traffic; the first matching send of a known pair is the
    # controller-side transmit time.
    for event in sends:
        channel = event.switch
        for entry in by_xid.get(event.xid, ()):
            if entry.msg_sent is None and (
                    channel == entry.switch
                    or channel.endswith(f"-{entry.switch}")):
                entry.msg_sent = event.ts

    return lifecycles


def activation_gap_summary(ledger: Iterable[LedgerRow]) -> Dict[str, Dict[str, float]]:
    """Per-switch distribution summary of the ledger's activation gaps.

    Over every acknowledged row, gap values are the paper's per-rule
    ``acked_at - activated_at`` delays on the controller's clock; ``early``
    counts the unsafe (negative) ones and ``never`` the
    acknowledged-but-never-activated rules (excluded from min/max/mean).
    """
    acked: Dict[str, List[LedgerRow]] = {}
    for row in ledger:
        if row.acked_at is not None:
            acked.setdefault(row.switch, []).append(row)
    summary: Dict[str, Dict[str, float]] = {}
    for switch in sorted(acked):
        rows = acked[switch]
        gaps = sorted(row.acked_at - row.activated_at for row in rows
                      if row.activated_at is not None)
        entry: Dict[str, float] = {
            "rules": len(rows),
            "early": sum(1 for gap in gaps if gap < 0),
            "never": len(rows) - len(gaps),
        }
        if gaps:
            entry.update(min=gaps[0], max=gaps[-1], mean=sum(gaps) / len(gaps))
        summary[switch] = entry
    return summary


def _fmt_ms(value: Optional[float]) -> str:
    return "-" if value is None else f"{value * 1000.0:+.2f}ms"


def _gap(row: Optional[LedgerRow]) -> str:
    if row is None or row.acked_at is None:
        return "-"
    if row.activated_at is None:
        return "never"
    return _fmt_ms(row.acked_at - row.activated_at)


def render_timeline_report(log: TraceLog, ledger: Iterable[LedgerRow],
                           title: str = "") -> str:
    """Per-rule lifecycle table of a traced run, gaps from its ledger."""
    lines: List[str] = []
    header = title or f"Rule lifecycle timeline — {log.technique or 'unknown'}"
    lines.append(header)
    lines.append("=" * len(header))
    lifecycles = sorted(rule_lifecycles(log).items())
    if not lifecycles:
        lines.append("(no rule lifecycle events in trace)")
        return "\n".join(lines) + "\n"
    ledger = list(ledger)
    rows = {(row.switch, row.xid): row for row in ledger}
    lines.append(f"{'switch':<8} {'xid':>6} {'issued':>9} {'received':>9} "
                 f"{'acked':>9} {'hw-active':>9} {'gap':>10}  confirmed-by")
    for (switch, xid), entry in lifecycles:
        def stamp(value: Optional[float]) -> str:
            return f"{value:9.4f}" if value is not None else f"{'-':>9}"

        lines.append(
            f"{switch:<8} {xid:>6} {stamp(entry.issued)} "
            f"{stamp(entry.switch_received)} {stamp(entry.ack_received)} "
            f"{stamp(entry.hw_activated)} {_gap(rows.get((switch, xid))):>10}  "
            f"{entry.confirmed_by}"
        )
    lines.append("")
    lines.append("Per-switch activation-gap summary (ack - hw activation; "
                 "negative = unsafe early ack)")
    for switch, stats in activation_gap_summary(ledger).items():
        detail = (f"  {switch}: {int(stats['rules'])} rules, "
                  f"{int(stats['early'])} early, {int(stats['never'])} never")
        if "mean" in stats:
            detail += (f", gap min {_fmt_ms(stats['min'])} / "
                       f"mean {_fmt_ms(stats['mean'])} / "
                       f"max {_fmt_ms(stats['max'])}")
        lines.append(detail)
    return "\n".join(lines) + "\n"


@dataclass
class FaultOverlap:
    """One fault activation and the rules that were in flight around it."""

    ts: float
    switch: str
    detail: str
    #: Rules issued but not yet hardware-activated at the fault instant.
    open_rules: List[Tuple[str, int]] = field(default_factory=list)


def fault_overlaps(log: TraceLog) -> List[FaultOverlap]:
    """Correlate fault activations with rules whose lifecycle was open."""
    lifecycles = sorted(rule_lifecycles(log).items())
    overlaps: List[FaultOverlap] = []
    for event in log.events:
        if event.phase != PHASE_FAULT:
            continue
        open_rules = [
            key
            for key, entry in lifecycles
            if entry.issued is not None and entry.issued <= event.ts
            and (entry.hw_activated is None or entry.hw_activated > event.ts)
        ]
        overlaps.append(FaultOverlap(ts=event.ts, switch=event.switch,
                                     detail=event.detail,
                                     open_rules=open_rules))
    return overlaps


def render_fault_overlay(log: TraceLog, title: str = "") -> str:
    """Fault activations interleaved with the rules they could affect."""
    lines: List[str] = []
    header = title or "Fault overlay"
    lines.append(header)
    lines.append("=" * len(header))
    overlaps = fault_overlaps(log)
    if not overlaps:
        lines.append("(no fault activations in trace)")
        return "\n".join(lines) + "\n"
    for overlap in overlaps:
        rules = (", ".join(f"{switch}/{xid}"
                           for switch, xid in overlap.open_rules)
                 or "none")
        lines.append(f"t={overlap.ts:9.4f}  {overlap.detail:<32} "
                     f"@{overlap.switch or '*':<6} open rules: {rules}")
    return "\n".join(lines) + "\n"
