"""Tracking of rule modifications that RUM has forwarded but not yet confirmed."""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional

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

    @property
    def confirmed(self) -> bool:
        """Whether RUM has confirmed this modification."""
        return self.confirmed_at is not None


class PendingRuleTracker:
    """Ordered collection of unconfirmed rule modifications for one switch."""

    def __init__(self, switch: str) -> None:
        self.switch = switch
        self._pending: "OrderedDict[int, PendingRule]" = OrderedDict()
        self._sequence = 0

    # -- adding ------------------------------------------------------------------
    def add(self, flowmod: FlowMod, now: float) -> PendingRule:
        """Track a newly forwarded FlowMod."""
        self._sequence += 1
        record = PendingRule(
            switch=self.switch,
            xid=flowmod.xid,
            flowmod=flowmod,
            forwarded_at=now,
            sequence=self._sequence,
        )
        self._pending[flowmod.xid] = record
        return record

    # -- queries -------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._pending)

    def get(self, xid: int) -> Optional[PendingRule]:
        """The pending record for ``xid`` (``None`` if unknown or confirmed)."""
        return self._pending.get(xid)

    def oldest(self, count: int) -> List[PendingRule]:
        """Up to ``count`` unconfirmed records, oldest first."""
        result = []
        for record in self._pending.values():
            result.append(record)
            if len(result) >= count:
                break
        return result

    def unconfirmed(self) -> List[PendingRule]:
        """All unconfirmed records, oldest first."""
        return list(self._pending.values())

    def unconfirmed_xids(self) -> List[int]:
        """Xids of all unconfirmed records, oldest first."""
        return list(self._pending.keys())

    # -- confirming --------------------------------------------------------------------
    def confirm(self, xid: int, now: float, by: str = "") -> Optional[PendingRule]:
        """Mark ``xid`` confirmed; returns the record, or ``None`` if unknown."""
        record = self._pending.pop(xid, None)
        if record is None:
            return None
        record.confirmed_at = now
        record.confirmed_by = by
        return record

    def confirm_up_to_sequence(self, sequence: int, now: float, by: str = "") -> List[PendingRule]:
        """Confirm every unconfirmed record with sequence number <= ``sequence``.

        Used by techniques whose confirmations are cumulative (barriers,
        timeouts, sequential probing): seeing evidence that modification *n*
        is in the data plane confirms everything forwarded before it, as long
        as the switch does not reorder.
        """
        confirmed = []
        for xid in list(self._pending.keys()):
            record = self._pending[xid]
            if record.sequence <= sequence:
                confirmed.append(self.confirm(xid, now, by=by))
        return [record for record in confirmed if record is not None]
