"""Probe-rule version management with value recycling.

The sequential probing technique stores a version number in a header field
(the prototype uses the 6-bit ToS field, i.e. only 64 distinct values), so
versions have to be recycled in longer experiments.  The
:class:`VersionAllocator` hands out monotonically increasing logical batch
numbers and maps them onto the small wire-value space, refusing to reuse a
wire value while a batch carrying it is still outstanding.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple


class VersionSpaceExhausted(RuntimeError):
    """Raised when every wire value is still in use by an unconfirmed batch."""


class VersionAllocator:
    """Maps logical batch numbers to recycled wire version values."""

    def __init__(
        self,
        max_wire_value: int,
        reserved: Tuple[int, ...] = (0,),
        usable_values: Optional[List[int]] = None,
    ) -> None:
        if max_wire_value < 2:
            raise ValueError("need at least two usable wire values")
        self.max_wire_value = max_wire_value
        self.reserved = set(reserved)
        if usable_values is not None:
            self._usable = [value for value in usable_values
                            if value not in self.reserved and 0 <= value <= max_wire_value]
        else:
            self._usable = [value for value in range(max_wire_value + 1)
                            if value not in self.reserved]
        if len(self._usable) < 2:
            raise ValueError("not enough usable wire values after reservations")
        self._next_batch = 0
        self._next_slot = 0
        #: wire value -> logical batch currently using it (insertion ordered).
        self._in_use: "OrderedDict[int, int]" = OrderedDict()
        #: logical batch -> wire value, for all outstanding batches.
        self._batch_to_wire: Dict[int, int] = {}
        #: The wire value most recently observed in the data plane.  It must
        #: not be re-allocated until a *different* value has been observed,
        #: otherwise a stale probe still carrying it would be mistaken for
        #: the new batch (the ABA problem of recycling a tiny value space).
        self._last_observed: Optional[int] = None

    # -- allocation --------------------------------------------------------------
    def allocate(self) -> Tuple[int, int]:
        """Allocate the next batch; returns ``(logical_batch, wire_value)``.

        Raises :class:`VersionSpaceExhausted` when every usable value is
        either still tied to an outstanding batch or is the value the data
        plane was last observed emitting.
        """
        for offset in range(len(self._usable)):
            wire = self._usable[(self._next_slot + offset) % len(self._usable)]
            if wire in self._in_use or wire == self._last_observed:
                continue
            self._next_slot = (self._next_slot + offset + 1) % len(self._usable)
            batch = self._next_batch
            self._next_batch += 1
            self._in_use[wire] = batch
            self._batch_to_wire[batch] = wire
            return batch, wire
        raise VersionSpaceExhausted(
            "every usable wire value is outstanding or still visible in the "
            "data plane; confirm or expire older batches first"
        )

    def mark_observed(self, wire_value: int) -> None:
        """Record that the data plane was seen emitting ``wire_value``."""
        self._last_observed = wire_value

    def outstanding(self) -> List[int]:
        """Logical batch numbers not yet released, oldest first."""
        return sorted(self._batch_to_wire)

    # -- resolution ----------------------------------------------------------------
    def resolve(self, wire_value: int) -> Optional[int]:
        """The newest outstanding logical batch carried by ``wire_value``."""
        batch = self._in_use.get(wire_value)
        return batch

    def release_through(self, batch: int) -> List[int]:
        """Release ``batch`` and every older outstanding batch.

        Sequential probing confirmations are cumulative: observing version
        ``v`` in the data plane means every earlier probe-rule version (and
        therefore every earlier real modification) has been applied too.
        Returns the list of released logical batches.
        """
        released = [candidate for candidate in self._batch_to_wire if candidate <= batch]
        for candidate in released:
            wire = self._batch_to_wire.pop(candidate)
            if self._in_use.get(wire) == candidate:
                del self._in_use[wire]
        return sorted(released)

    @property
    def capacity(self) -> int:
        """Number of distinct wire values available for recycling."""
        return len(self._usable)
