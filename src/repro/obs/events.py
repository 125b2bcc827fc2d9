"""Typed trace events for the rule-update lifecycle.

A single FIB update travels ``update-issued → msg-sent → switch-received →
control-applied → ack-sent → ack-received`` on the control path, with the
hardware ground truth arriving (possibly much later, possibly never) as
``hw-activated``.  Every event is stamped with the simulation time, the
switch it concerns, the OpenFlow transaction id tying the phases of one
rule together, and the technique under test.  ``fault`` events record each
activation of an armed fault model so timelines can overlay exactly what
the fault subsystem was doing when a gap opened.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

PHASE_UPDATE_ISSUED = "update-issued"
PHASE_MSG_SENT = "msg-sent"
PHASE_SWITCH_RECEIVED = "switch-received"
PHASE_CONTROL_APPLIED = "control-applied"
PHASE_ACK_SENT = "ack-sent"
PHASE_ACK_RECEIVED = "ack-received"
PHASE_HW_ACTIVATED = "hw-activated"
PHASE_FAULT = "fault"
# Recovery overlay (see :mod:`repro.recovery`): a shadow replay after a
# switch reconnect. Deliberately *not* part of LIFECYCLE_PHASES — resync
# spans live beside rule lifecycles, they are not a phase of one rule.
PHASE_RESYNC_STARTED = "resync-started"
PHASE_RULE_REINSTALLED = "rule-reinstalled"
PHASE_RESYNC_COMPLETE = "resync-complete"

#: Lifecycle phases in causal order (``fault`` is an overlay, not a phase).
LIFECYCLE_PHASES: Tuple[str, ...] = (
    PHASE_UPDATE_ISSUED,
    PHASE_MSG_SENT,
    PHASE_SWITCH_RECEIVED,
    PHASE_CONTROL_APPLIED,
    PHASE_ACK_SENT,
    PHASE_ACK_RECEIVED,
    PHASE_HW_ACTIVATED,
)


class TraceEvent:
    """One timestamped observation; slotted — traced runs emit thousands."""

    __slots__ = ("ts", "phase", "switch", "xid", "detail")

    def __init__(self, ts: float, phase: str, switch: str = "",
                 xid: Optional[int] = None, detail: str = "") -> None:
        self.ts = ts
        self.phase = phase
        self.switch = switch
        self.xid = xid
        self.detail = detail

    def as_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"ts": self.ts, "phase": self.phase}
        if self.switch:
            out["switch"] = self.switch
        if self.xid is not None:
            out["xid"] = self.xid
        if self.detail:
            out["detail"] = self.detail
        return out

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "TraceEvent":
        return cls(ts=payload["ts"], phase=payload["phase"],
                   switch=payload.get("switch", ""),
                   xid=payload.get("xid"),
                   detail=payload.get("detail", ""))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceEvent):
            return NotImplemented
        return (self.ts == other.ts and self.phase == other.phase
                and self.switch == other.switch and self.xid == other.xid
                and self.detail == other.detail)

    def __repr__(self) -> str:
        return (f"TraceEvent(ts={self.ts!r}, phase={self.phase!r}, "
                f"switch={self.switch!r}, xid={self.xid!r}, "
                f"detail={self.detail!r})")


@dataclass
class TraceLog:
    """Everything a traced session observed, ready to serialize.

    ``events`` are the lifecycle and fault events in emission order;
    ``meta`` is what the session adds at the end (topology, fault plan,
    kernel counters).
    """

    technique: str = ""
    kind: str = ""
    seed: Optional[int] = None
    events: List[TraceEvent] = field(default_factory=list)
    meta: Dict[str, Any] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.events)

    def phases(self) -> Dict[str, int]:
        """Event count per phase — a quick sanity view of coverage."""
        counts: Dict[str, int] = {}
        for event in self.events:
            counts[event.phase] = counts.get(event.phase, 0) + 1
        return counts

    def filtered(self, phase: Optional[str] = None,
                 switch: Optional[str] = None,
                 xid: Optional[int] = None) -> Iterable[TraceEvent]:
        for event in self.events:
            if phase is not None and event.phase != phase:
                continue
            if switch is not None and event.switch != switch:
                continue
            if xid is not None and event.xid != xid:
                continue
            yield event

    def as_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "technique": self.technique,
            "kind": self.kind,
            "events": [event.as_dict() for event in self.events],
        }
        if self.seed is not None:
            out["seed"] = self.seed
        if self.meta:
            out["meta"] = self.meta
        return out

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "TraceLog":
        return cls(
            technique=payload.get("technique", ""),
            kind=payload.get("kind", ""),
            seed=payload.get("seed"),
            events=[TraceEvent.from_dict(item)
                    for item in payload.get("events", [])],
            meta=dict(payload.get("meta", {})),
        )
