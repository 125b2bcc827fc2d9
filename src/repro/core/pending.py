"""Tracking of rule modifications that RUM has forwarded but not yet confirmed.

A tracker keeps one switch's unconfirmed records by xid in the order they
were first forwarded, which is sequence order but for one exception: a
controller retransmit forwards a pending FlowMod again under its xid, and
the tracker re-adds it *in place* with a newer sequence (moving it would
change :meth:`~PendingRuleTracker.oldest` and the order of confirmations).
Every later record was first added later, so a cumulative confirmation up to
``S`` stops at the first record above ``S`` that was not re-added: it costs
what it confirms plus the re-added records it steps over, not the window.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Dict, Iterator, List, Optional, Set

from repro.openflow.messages import FlowMod


@dataclass
class PendingRule:
    """One FlowMod forwarded to a switch and awaiting data-plane confirmation."""

    switch: str
    xid: int
    flowmod: FlowMod
    forwarded_at: float
    #: Monotonically increasing per-switch sequence number (forwarding order).
    sequence: int
    confirmed_at: Optional[float] = None
    #: How the confirmation was obtained (technique-specific label, e.g.
    #: ``"probe"``, ``"barrier"``, ``"timeout"``, ``"fallback"``).
    confirmed_by: str = ""


class PendingRuleTracker:
    """Ordered collection of unconfirmed rule modifications for one switch."""

    def __init__(self, switch: str) -> None:
        self.switch = switch
        self._pending: Dict[int, PendingRule] = {}
        #: Xids re-added in place while pending, until they are confirmed.
        self._readded: Set[int] = set()
        self._sequence = 0

    # -- adding ------------------------------------------------------------------
    def add(self, flowmod: FlowMod, now: float) -> PendingRule:
        """Track a newly forwarded FlowMod (a pending xid keeps its place)."""
        self._sequence += 1
        xid = flowmod.xid
        record = PendingRule(self.switch, xid, flowmod, now, self._sequence)
        if xid in self._pending:
            self._readded.add(xid)
        self._pending[xid] = record
        return record

    # -- queries -------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._pending)

    def oldest(self, count: int) -> Iterator[PendingRule]:
        """Up to ``count`` unconfirmed records, oldest first: a walk of the
        tracker itself, so nothing may be confirmed while it is iterated."""
        return islice(self._pending.values(), count)

    def unconfirmed(self) -> List[PendingRule]:
        """All unconfirmed records, oldest first."""
        return list(self._pending.values())

    def newest_sequence(self) -> Optional[int]:
        """The highest unconfirmed sequence number (``None`` when nothing is
        pending): the last record's or a re-added one's, never a scan."""
        pending = self._pending
        if not pending:
            return None
        newest = next(reversed(pending.values())).sequence
        for xid in self._readded:
            newest = max(newest, pending[xid].sequence)
        return newest

    # -- confirming --------------------------------------------------------------------
    def confirm(self, xid: int, now: float, by: str = "") -> Optional[PendingRule]:
        """Mark ``xid`` confirmed; returns the record, or ``None`` if unknown."""
        record = self._pending.pop(xid, None)
        if record is None:
            return None
        self._readded.discard(xid)
        record.confirmed_at = now
        record.confirmed_by = by
        return record

    def confirm_up_to_sequence(self, sequence: int, now: float, by: str = "") -> List[PendingRule]:
        """Confirm every unconfirmed record with sequence number <= ``sequence``,
        in the tracker's order.

        Used by techniques whose confirmations are cumulative (barriers,
        timeouts, sequential probing): seeing evidence that modification *n*
        is in the data plane confirms everything forwarded before it, as long
        as the switch does not reorder.
        """
        pending, readded, confirmed = self._pending, self._readded, []
        for record in pending.values():
            if record.sequence <= sequence:
                confirmed.append(record)
            elif record.xid not in readded:
                break
        for record in confirmed:
            del pending[record.xid]
            readded.discard(record.xid)
            record.confirmed_at = now
            record.confirmed_by = by
        return confirmed
