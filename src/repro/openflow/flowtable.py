"""Flow table with OpenFlow 1.0 add/modify/delete semantics.

Two lookup disciplines are supported:

* ``priority`` (default) — the highest-priority matching entry wins; ties are
  broken by installation order (older entry wins), which is how Open vSwitch
  behaves for equal priorities.
* ``install_order`` — priorities are ignored and the *most recently installed*
  matching entry wins.  This replicates the hardware switch used in the
  paper's prototype, which "does not support priorities but takes the rule
  installation order to define the rule importance"; the paper's prototype
  therefore "carefully place[s] the low priority rules early" so that later
  installations take precedence (Section 4).

Both are served by one structure (see :class:`FlowTable`): a store keyed by
rule identity and a lookup index that every mutation updates in place.  The
store hashes each match and the index reads its :attr:`Match.exact_slot`
and :meth:`Match.compiled` matcher; ``Match`` memoises all three lazily —
never in ``__init__``, because ``intersection()`` / ``extended()`` fill a
blank ``Match()`` afterwards.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.openflow.actions import Action, actions_signature
from repro.openflow.constants import FlowModCommand
from repro.openflow.match import Match
from repro.openflow.messages import FlowMod
from repro.packet.packet import Packet


class FlowEntry:
    """One installed rule; ``entry_id`` numbers it within its table.

    ``plan`` is the data plane's forwarding plan of ``actions``,
    ``(rewrites, physical output ports, to_controller)``, compiled on the
    first lookup-cache miss that matches the entry and ``None`` until then;
    a MODIFY that rebinds ``actions`` drops it.  It holds nothing that
    refers back to the entry, so it adds no reference cycle.
    """

    __slots__ = (
        "entry_id",
        "match",
        "actions",
        "priority",
        "cookie",
        "installed_at",
        "packet_count",
        "byte_count",
        "source_xid",
        "plan",
    )

    def __init__(
        self,
        entry_id: int,
        match: Match,
        actions: Sequence[Action],
        priority: int = 32768,
        cookie: int = 0,
        installed_at: float = 0.0,
        source_xid: int = 0,
    ) -> None:
        self.entry_id = entry_id
        self.match = match
        self.actions: List[Action] = list(actions)
        self.priority = int(priority)
        self.cookie = int(cookie)
        self.installed_at = installed_at
        self.packet_count = 0
        self.byte_count = 0
        self.source_xid = source_xid
        self.plan: Optional[tuple] = None

    def signature(self) -> Tuple:
        """Hashable identity used to compare control- and data-plane state."""
        return (self.match, self.priority, actions_signature(self.actions))

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"<FlowEntry #{self.entry_id} prio={self.priority} {self.match!r} "
            f"-> {self.actions!r}>"
        )


class FlowTable:
    """A single-table OpenFlow pipeline.

    **Store.**  Entries live in an insertion-ordered
    ``{(priority, match): FlowEntry}`` dict, so "``(priority, match)`` is
    unique per table" is structural: an ADD of a present identity assigns
    the key (the replacement keeps the old position in :attr:`entries`), and
    only a *new* identity can hit ``capacity``.

    **Index.**  ``_exact`` and ``_wildcard`` are updated in place by every
    mutation; nothing is ever rebuilt.  A lookup returns the matching entry
    with the smallest place ``(rank, time, id)`` (:meth:`_place`).
    ``_exact`` maps a field signature (tuple of constrained field indices)
    to its key getter and a hash table ``{field values: (place + (entry,),
    ...)}`` for fully specified rules; the list ``_wildcard`` holds the rest
    as ``place + (entry, matcher)``.  Both are sorted by place and searched
    with ``bisect`` (``entry_id`` makes every place unique), so an
    out-of-order ``now`` lands right.

    **Cost** (n entries, w wildcard entries): ADD, DELETE_STRICT and
    :meth:`remove_entry` are one identity lookup plus one index update —
    O(1) for exact rules, O(log w) search + list shift for wildcard ones.
    MODIFY and non-strict DELETE scan the n entries for those the FlowMod's
    match covers; MODIFY then does no index work at all, because it changes
    neither match, priority nor order.  A lookup probes one hash table per
    signature, whatever the priorities, and walks wildcard entries only
    while they could still beat the best exact hit.  A key is one C call of
    the signature's ``itemgetter`` (a one-item slice for one field, so every
    key is a tuple); ``None`` (an absent field, read as zero) is replaced
    only when the key holds one.  A lookup with a rule identity set aside
    (``aside``, probe generation's "what catches this packet while the
    probed rule is absent?") is the same walk: it skips that one entry where
    it would have been a hit, so it costs what a lookup costs, at any table
    size.

    **Plans.**  The table stores each entry's ``plan`` slot and keeps it
    true: MODIFY, the only mutation that rebinds an entry's ``actions``,
    drops the plan with it; every other mutation makes or removes whole
    entries.  Only a data plane's table ever fills the slot.
    """

    __slots__ = ("mode", "capacity", "name", "_entries", "_exact", "_wildcard", "_created")

    def __init__(
        self,
        mode: str = "priority",
        capacity: Optional[int] = None,
        name: str = "table0",
    ) -> None:
        if mode not in ("priority", "install_order"):
            raise ValueError(f"unknown flow table mode {mode!r}")
        self.mode = mode
        self.capacity = capacity
        self.name = name
        self._entries: Dict[Tuple[int, Match], FlowEntry] = {}
        self._exact: Dict[tuple, Tuple[Callable, Dict[tuple, tuple]]] = {}
        self._wildcard: List[tuple] = []
        #: Entries this table has created; the last one's ``entry_id``.
        self._created = 0

    # -- inspection --------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self.entries)

    @property
    def entries(self) -> List[FlowEntry]:
        """A copy of the current entries (stable order: installation order)."""
        return list(self._entries.values())

    def entries_sorted_for_lookup(self) -> List[FlowEntry]:
        """Entries in the order the lookup algorithm considers them."""
        if self.mode == "install_order":
            # Most recently installed first: priorities are ignored and later
            # installations take precedence over earlier ones.
            return sorted(
                self.entries, key=lambda entry: (-entry.installed_at, -entry.entry_id)
            )
        return sorted(
            self.entries, key=lambda entry: (-entry.priority, entry.installed_at, entry.entry_id)
        )

    # -- mutation ------------------------------------------------------------
    def apply_flowmod(self, flowmod: FlowMod, now: float = 0.0) -> List[FlowEntry]:
        """Apply a FlowMod and return the entries that were added or modified.

        Raises :class:`TableFullError` when an ADD would exceed the capacity.
        """
        command = flowmod.command
        if command == FlowModCommand.ADD:
            return [self._add(flowmod, now)]
        if command in (FlowModCommand.MODIFY, FlowModCommand.MODIFY_STRICT):
            return self._modify(flowmod, strict=command == FlowModCommand.MODIFY_STRICT, now=now)
        if command in (FlowModCommand.DELETE, FlowModCommand.DELETE_STRICT):
            for entry in self._selected(flowmod, strict=command == FlowModCommand.DELETE_STRICT):
                self.remove_entry(entry)
            return []
        raise ValueError(f"unsupported FlowMod command {command}")

    def _add(self, flowmod: FlowMod, now: float) -> FlowEntry:
        identity = (flowmod.priority, flowmod.match)
        # OpenFlow ADD semantics: an identical match at the same priority is
        # replaced rather than duplicated.
        replaced = self._entries.get(identity)
        if replaced is None and self.capacity is not None and len(self._entries) >= self.capacity:
            raise TableFullError(f"flow table {self.name!r} full ({self.capacity} entries)")
        inherit = replaced is not None and self.mode == "install_order"
        self._created += 1
        entry = FlowEntry(
            self._created,
            flowmod.match,
            flowmod.actions,
            priority=flowmod.priority,
            cookie=flowmod.cookie,
            installed_at=replaced.installed_at if inherit else now,
            source_xid=flowmod.xid,
        )
        if replaced is not None:
            self._unindex(replaced)
        self._entries[identity] = entry
        self._index(entry)
        return entry

    def _modify(self, flowmod: FlowMod, strict: bool, now: float) -> List[FlowEntry]:
        touched = self._selected(flowmod, strict)
        for entry in touched:
            entry.actions = list(flowmod.actions)
            entry.plan = None
            entry.cookie = flowmod.cookie
            entry.source_xid = flowmod.xid
        # OpenFlow 1.0: MODIFY with no matching entry behaves like ADD.
        return touched or [self._add(flowmod, now)]

    def _selected(self, flowmod: FlowMod, strict: bool) -> List[FlowEntry]:
        """The entries a MODIFY/DELETE (``_STRICT`` or not) addresses."""
        if strict:
            entry = self._entries.get((flowmod.priority, flowmod.match))
            return [] if entry is None else [entry]
        # Non-strict: the FlowMod match acts as a wildcard filter that must
        # cover the entry's match (an empty match covers everything).
        covers = flowmod.match.covers
        return [entry for entry in self._entries.values() if covers(entry.match)]

    def remove_entry(self, entry: FlowEntry) -> None:
        """Remove a specific entry object (used by timeout expiry)."""
        identity = (entry.priority, entry.match)
        if self._entries.get(identity) is entry:
            del self._entries[identity]
            self._unindex(entry)

    def clear(self) -> None:
        """Remove all entries."""
        self._entries.clear()
        self._exact.clear()
        self._wildcard.clear()

    # -- index maintenance ------------------------------------------------------
    def _place(self, entry: FlowEntry) -> Tuple[int, float, int]:
        """Highest priority then oldest, or just newest: smallest first."""
        if self.mode == "install_order":
            return 0, -entry.installed_at, -entry.entry_id
        return -entry.priority, entry.installed_at, entry.entry_id

    def _index(self, entry: FlowEntry) -> None:
        place, slot = self._place(entry), entry.match.exact_slot
        if slot is None:
            insort(self._wildcard, place + (entry, entry.match.compiled()))
        else:
            signature, key = slot
            located = self._exact.get(signature)
            if located is None:
                key_of = (itemgetter(*signature) if len(signature) > 1
                          else itemgetter(slice(signature[0], signature[0] + 1)))
                located = self._exact[signature] = (key_of, {})
            group, hit = located[1], place + (entry,)
            hits = group.get(key)
            group[key] = (hit,) if hits is None else tuple(sorted(hits + (hit,)))

    def _unindex(self, entry: FlowEntry) -> None:
        place, slot = self._place(entry), entry.match.exact_slot
        if slot is None:
            wildcard = self._wildcard
            del wildcard[bisect_left(wildcard, place)]
            return
        signature, key = slot
        group = self._exact[signature][1]
        hits = group[key]
        at = bisect_left(hits, place)
        hits = group[key] = hits[:at] + hits[at + 1:]
        if not hits:
            del group[key]
            if not group:
                del self._exact[signature]

    # -- lookup -----------------------------------------------------------------
    def lookup_values(
        self, values, aside: Optional[Tuple[int, Match]] = None
    ) -> Optional[FlowEntry]:
        """Classify fixed-order header values (the hot path).

        ``values`` follows :data:`~repro.packet.fields.FIELD_ORDER` with
        ``None`` for absent fields (read as zero), exactly like
        ``packet._values`` with ``in_port`` filled in; any other sequence is
        read as a tuple (``tuple`` returns a tuple itself).  ``aside`` is a
        rule identity ``(priority, match)``: the answer is then the one the
        table would give without that rule.
        """
        skip = None if aside is None else self._entries.get(aside)
        values = tuple(values)
        best = None
        for key_of, group in self._exact.values():
            key = key_of(values)
            if None in key:
                key = tuple([value or 0 for value in key])
            hits = group.get(key)
            if hits is not None:
                hit = hits[0]
                if hit[3] is skip:
                    if len(hits) == 1:
                        continue
                    hit = hits[1]
                # Places are unique, so the comparison never reaches the entry.
                if best is None or hit < best:
                    best = hit
        for hit in self._wildcard:
            if best is not None and hit > best:
                break
            if hit[4](values) and hit[3] is not skip:
                return hit[3]
        return None if best is None else best[3]

    def lookup(self, packet: Packet) -> Optional[FlowEntry]:
        """The entry that would forward ``packet``, or ``None`` (table miss)."""
        return self.lookup_values(packet._values)

    # -- comparison ----------------------------------------------------------------
    def signature_set(self) -> set:
        """Set of entry signatures — used to diff control vs. data plane state."""
        return {entry.signature() for entry in self._entries.values()}


class TableFullError(RuntimeError):
    """Raised when an ADD exceeds the flow table capacity."""
