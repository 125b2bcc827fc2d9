"""Per-rule lifecycle timelines and the per-switch activation-gap summary.

:func:`rule_lifecycles` reads the full trace of a session and reconstructs
every rule's lifecycle — issued, sent, received, applied to the control
plane, acknowledged, activated in hardware — as one :class:`RuleLifecycle`
per ``(switch, xid)``: the phase view that first-divergence alignment and
the fault overlay (:func:`fault_overlaps`) need.

The headline quantity, the **activation gap**

    ``acked_at - activated_at``

per rule, with the paper's sign convention (negative = the controller was
told the rule was active before packets could hit it — the unsafe early
acknowledgment; positive = wasted waiting time), comes from the run's
activation ledger (:mod:`repro.analysis.activation`), which every run has,
traced or not.  :func:`activation_gap_summary` condenses it per switch;
rules acknowledged but *never* activated are counted separately.

The text of all of it — the per-rule timeline, the gap summary and the
fault overlay — is rendered by :mod:`repro.campaign.report`.
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


#: Lifecycle phases paired with the :class:`RuleLifecycle` slot each fills,
#: in causal order (how a divergence is picked when timestamps tie).
PHASE_SLOTS: Tuple[Tuple[str, str], ...] = (
    (PHASE_UPDATE_ISSUED, "issued"),
    (PHASE_MSG_SENT, "msg_sent"),
    (PHASE_SWITCH_RECEIVED, "switch_received"),
    (PHASE_CONTROL_APPLIED, "control_applied"),
    (PHASE_ACK_SENT, "ack_sent"),
    (PHASE_ACK_RECEIVED, "ack_received"),
    (PHASE_HW_ACTIVATED, "hw_activated"),
)
_SLOT_BY_PHASE = dict(PHASE_SLOTS)


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

    for event in log.events:
        xid = event.xid
        if xid is None:
            continue
        if event.phase == PHASE_MSG_SENT:
            sends.append(event)
            continue
        slot = _SLOT_BY_PHASE.get(event.phase)
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
