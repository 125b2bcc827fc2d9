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
index reads :meth:`Match.compiled_constraints`, ``is_exact`` and the hash
built on them, which ``Match`` memoises lazily — never in ``__init__``,
because ``intersection()`` / ``extended()`` fill a blank ``Match()`` afterwards.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.openflow.actions import Action, actions_signature
from repro.openflow.constants import FlowModCommand
from repro.openflow.match import Match
from repro.openflow.messages import FlowMod
from repro.packet.packet import Packet


class FlowEntry:
    """One installed rule; ``entry_id`` numbers it within its table."""

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

    def signature(self) -> Tuple:
        """Hashable identity used to compare control- and data-plane state."""
        return (self.match, self.priority, actions_signature(self.actions))

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"<FlowEntry #{self.entry_id} prio={self.priority} {self.match!r} "
            f"-> {self.actions!r}>"
        )


def _exact_slot(match: Match) -> Optional[Tuple[tuple, tuple]]:
    """``(field signature, field values)`` hash key of a fully specified
    match; ``None`` (masked fields, or no constraint) means the wildcard list."""
    constraints = match.compiled_constraints()
    if constraints and match.is_exact:
        return tuple(zip(*constraints))[:2]
    return None


class FlowTable:
    """A single-table OpenFlow pipeline.

    **Store.**  Entries live in an insertion-ordered
    ``{(priority, match): FlowEntry}`` dict, so "``(priority, match)`` is
    unique per table" is structural: an ADD of a present identity assigns
    the key (the replacement keeps the old position in :attr:`entries`), and
    only a *new* identity can hit ``capacity``.

    **Index.**  ``_buckets`` stays alive and is updated in place by every
    mutation; nothing is ever rebuilt.  It is a list of
    ``(rank, exact_groups, wildcard)`` sorted by ``rank``; a lookup returns
    the matching entry with the smallest ``(rank, order)`` (:meth:`_place`;
    ``install_order`` mode is one rank holding only a ``wildcard`` list).
    ``exact_groups`` maps a field signature (tuple of constrained field
    indices) to a hash table ``{field values: (order, entry)}`` for fully
    specified rules; ``wildcard`` holds the rest as
    ``(order, entry, matcher)`` sorted by ``order``.  Both sorted lists are
    searched with ``bisect`` (``entry_id`` makes every key unique), so an
    out-of-order ``now`` still lands in the right place.

    **Cost** (n entries, w wildcard entries of one rank): ADD, DELETE_STRICT
    and :meth:`remove_entry` are one identity lookup plus one index update —
    O(1) for exact rules, O(log w) search + list shift for wildcard ones.
    MODIFY and non-strict DELETE scan the n entries for those the FlowMod's
    match covers; MODIFY then does no index work at all, because it changes
    neither match, priority nor order.  A lookup probes one hash table per
    (rank, signature) and walks wildcard entries only while they could still
    beat the best exact hit.  A lookup with a rule identity set aside
    (``aside``, probe generation's "what catches this packet while the
    probed rule is absent?") is the same walk: it skips that one entry where
    it would have been a hit, so it costs what a lookup costs, at any table
    size.
    """

    __slots__ = ("mode", "capacity", "name", "_entries", "_buckets", "_created")

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
        self._buckets: List[Tuple[int, Dict[tuple, dict], list]] = []
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

    def find(self, predicate: Callable[[FlowEntry], bool]) -> List[FlowEntry]:
        """All entries satisfying ``predicate``."""
        return [entry for entry in self._entries.values() if predicate(entry)]

    def occupancy(self) -> int:
        """Number of installed rules (alias of ``len``)."""
        return len(self._entries)

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
        self._buckets.clear()

    # -- index maintenance ------------------------------------------------------
    def _place(self, entry: FlowEntry) -> Tuple[int, Tuple[float, int], Optional[tuple]]:
        """``(rank, order, exact slot)``: highest priority then oldest, or just newest."""
        if self.mode == "install_order":
            # Equal matches of different priority share the one rank, so no
            # hash path: its keys are unique only within one priority.
            return 0, (-entry.installed_at, -entry.entry_id), None
        return -entry.priority, (entry.installed_at, entry.entry_id), _exact_slot(entry.match)

    def _index(self, entry: FlowEntry) -> None:
        rank, order, slot = self._place(entry)
        buckets = self._buckets
        at = bisect_left(buckets, (rank,))
        if at == len(buckets) or buckets[at][0] != rank:
            buckets.insert(at, (rank, {}, []))
        _, exact_groups, wildcard = buckets[at]
        if slot is None:
            insort(wildcard, (order, entry, entry.match.compiled()))
        else:
            exact_groups.setdefault(slot[0], {})[slot[1]] = (order, entry)

    def _unindex(self, entry: FlowEntry) -> None:
        rank, order, slot = self._place(entry)
        buckets = self._buckets
        at = bisect_left(buckets, (rank,))
        _, exact_groups, wildcard = buckets[at]
        if slot is None:
            del wildcard[bisect_left(wildcard, (order,))]
        else:
            group = exact_groups[slot[0]]
            del group[slot[1]]
            if not group:
                del exact_groups[slot[0]]
        if not exact_groups and not wildcard:
            del buckets[at]

    # -- lookup -----------------------------------------------------------------
    def lookup_values(
        self, values, aside: Optional[Tuple[int, Match]] = None
    ) -> Optional[FlowEntry]:
        """Classify a fixed-order header value array (the hot path).

        ``values`` follows :data:`~repro.packet.fields.FIELD_ORDER` with
        ``None`` for absent fields (read as zero), exactly like
        ``packet._values`` with ``in_port`` filled in.  ``aside`` is a rule
        identity ``(priority, match)``: the answer is then the one the table
        would give without that rule.
        """
        skip = None if aside is None else self._entries.get(aside)
        for _rank, exact_groups, wildcard in self._buckets:
            best_order = None
            best_entry = None
            for signature, group in exact_groups.items():
                key = tuple((values[i] or 0) for i in signature)
                hit = group.get(key)
                if (hit is not None and hit[1] is not skip
                        and (best_order is None or hit[0] < best_order)):
                    best_order, best_entry = hit
            for order, entry, matcher in wildcard:
                if best_order is not None and order > best_order:
                    break
                if matcher(values) and entry is not skip:
                    best_order, best_entry = order, entry
                    break
            if best_entry is not None:
                return best_entry
        return None

    def lookup(self, packet: Packet) -> Optional[FlowEntry]:
        """The entry that would forward ``packet``, or ``None`` (table miss)."""
        return self.lookup_values(packet._values)

    # -- comparison ----------------------------------------------------------------
    def signature_set(self) -> set:
        """Set of entry signatures — used to diff control vs. data plane state."""
        return {entry.signature() for entry in self._entries.values()}

    def dump(self) -> List[Dict]:
        """A JSON-able dump of the table (tests and debugging)."""
        return [
            {
                "priority": entry.priority,
                "match": repr(entry.match),
                "actions": [repr(action) for action in entry.actions],
                "packets": entry.packet_count,
            }
            for entry in self.entries_sorted_for_lookup()
        ]


class TableFullError(RuntimeError):
    """Raised when an ADD exceeds the flow table capacity."""
