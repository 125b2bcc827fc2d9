"""OpenFlow 1.0 match structure with wildcards and IPv4 prefixes.

Besides packet classification (:meth:`Match.matches_packet`), the class
implements the set-algebra predicates that RUM's general probing technique
needs when constructing probe packets in the presence of overlapping rules:

* :meth:`Match.overlaps` — is there a packet matched by both rules?
* :meth:`Match.covers` — does this match include every packet of the other?
* :meth:`Match.intersection` — the most general match describing the packets
  matched by both (``None`` when disjoint).

All field values are integers; IP source/destination additionally carry a
prefix length so ``10.0.0.0/24`` style rules work.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.packet.addresses import ip_to_int, mac_to_int, prefix_mask
from repro.packet.fields import (
    FIELD_INDEX,
    FIELD_MAX_BY_INDEX,
    FIELD_REGISTRY,
    HeaderField,
)
from repro.packet.packet import Packet

def _compile_matcher(
    constraints: Tuple[Tuple[int, int, int], ...]
) -> Callable[[List[Optional[int]]], bool]:
    """Build a classifier closure for ``(field_index, value, mask)`` tuples.

    Operates on a packet's fixed-order header values where ``None``
    means "field absent", which OpenFlow 1.0 treats as zero.  The one- and
    two-constraint shapes (the vast majority of installed rules) get
    specialised closures without loop overhead.
    """
    if not constraints:
        return lambda values: True
    if len(constraints) == 1:
        ((index, want, mask),) = constraints

        def match_one(values, _i=index, _want=want, _mask=mask):
            value = values[_i]
            return ((value or 0) & _mask) == _want

        return match_one
    if len(constraints) == 2:
        (index_a, want_a, mask_a), (index_b, want_b, mask_b) = constraints

        def match_two(values, _ia=index_a, _wa=want_a, _ma=mask_a,
                      _ib=index_b, _wb=want_b, _mb=mask_b):
            value_a = values[_ia]
            if ((value_a or 0) & _ma) != _wa:
                return False
            value_b = values[_ib]
            return ((value_b or 0) & _mb) == _wb

        return match_two

    def match_many(values, _constraints=constraints):
        for index, want, mask in _constraints:
            value = values[index]
            if ((value or 0) & mask) != want:
                return False
        return True

    return match_many


#: Fields that support prefix (masked) matching.
_PREFIX_FIELDS = (HeaderField.IP_SRC, HeaderField.IP_DST)

#: Fields whose human-friendly constructor values may be strings.
_MAC_FIELDS = (HeaderField.ETH_SRC, HeaderField.ETH_DST)

#: ``name -> (field, full-width mask)``: an exact constraint stores the mask.
_FULL_MASKS = {field.value: (field, spec.max_value) for field, spec in FIELD_REGISTRY.items()}


class Match:
    """An immutable OpenFlow match.

    Construct with keyword arguments named after :class:`HeaderField` values::

        Match(ip_src="10.0.0.1", ip_dst="10.0.1.5", ip_proto=17)
        Match(ip_dst=("10.0.0.0", 24))          # prefix match
        Match()                                  # match-all (all wildcards)

    Internally every constrained field is stored as ``(value, mask)`` where
    ``mask`` selects the significant bits.  Non-prefix fields always use the
    full-width mask.
    """

    __slots__ = ("_fields", "_compiled", "_memo", "_hash")

    def __init__(self, **kwargs) -> None:
        # The caches fill on first use, never here: ``intersection`` and
        # ``extended`` build a blank ``Match()`` and assign ``_fields`` later,
        # so anything derived in ``__init__`` would describe the empty match.
        self._compiled: Optional[Callable[[List[Optional[int]]], bool]] = None
        self._memo: Optional[tuple] = None
        self._hash: Optional[int] = None
        fields: Dict[HeaderField, Tuple[int, int]] = {}
        for name, raw in kwargs.items():
            if raw is None:
                continue
            known = _FULL_MASKS.get(name)
            if known is not None and type(raw) is int and 0 <= raw <= known[1]:
                fields[known[0]] = (raw, known[1])  # an exact in-range int
                continue
            field = HeaderField(name)
            spec = FIELD_REGISTRY[field]
            full_mask = spec.max_value
            if field in _PREFIX_FIELDS:
                value, mask = self._parse_ip_constraint(raw)
            elif field in _MAC_FIELDS:
                value, mask = mac_to_int(raw), full_mask
            else:
                value, mask = int(raw), full_mask
            spec.validate(value)
            fields[field] = (value & mask, mask)
        self._fields = fields

    @staticmethod
    def _parse_ip_constraint(raw) -> Tuple[int, int]:
        """Accept ``"a.b.c.d"``, ``("a.b.c.d", prefix)`` or ``"a.b.c.d/prefix"``."""
        if isinstance(raw, tuple):
            address, prefix = raw
        elif isinstance(raw, str) and "/" in raw:
            address, prefix_text = raw.split("/", 1)
            prefix = int(prefix_text)
        else:
            address, prefix = raw, 32
        mask = prefix_mask(int(prefix))
        return ip_to_int(address) & mask, mask

    # -- introspection -------------------------------------------------------
    @property
    def fields(self) -> Dict[HeaderField, Tuple[int, int]]:
        """Constrained fields as ``{field: (value, mask)}`` (a copy)."""
        return dict(self._fields)

    def is_wildcard(self, field: HeaderField | str) -> bool:
        """Whether ``field`` is unconstrained by this match."""
        return HeaderField(field) not in self._fields

    def value_of(self, field: HeaderField | str) -> Optional[int]:
        """The exact value required for ``field``, or ``None`` if wildcarded/masked."""
        field = HeaderField(field)
        if field not in self._fields:
            return None
        value, mask = self._fields[field]
        if mask != FIELD_REGISTRY[field].max_value:
            return None
        return value

    @property
    def is_match_all(self) -> bool:
        """True when no field is constrained (matches every packet)."""
        return not self._fields

    # -- classification -----------------------------------------------------
    def matches_packet(self, packet: Packet) -> bool:
        """Whether ``packet`` satisfies every constraint of this match.

        Dispatches to the compiled matcher (see :meth:`compiled`).
        """
        matcher = self._compiled
        if matcher is None:
            matcher = self.compiled()
        return matcher(packet._values)

    def _memoised(self) -> tuple:
        """Fill ``_memo`` with ``(compiled constraints, exact slot)``: a match
        is immutable once ``_fields`` is in place, so it never goes stale."""
        constraints = tuple(sorted((FIELD_INDEX[field], value, mask)
                                   for field, (value, mask) in self._fields.items()))
        is_exact = all(mask == FIELD_MAX_BY_INDEX[index] for index, _, mask in constraints)
        slot = tuple(zip(*constraints))[:2] if constraints and is_exact else None
        self._memo = (constraints, slot)
        return self._memo

    def compiled_constraints(self) -> Tuple[Tuple[int, int, int], ...]:
        """The constraints as ``(field_index, value, mask)`` tuples.

        Field indices follow :data:`~repro.packet.fields.FIELD_ORDER`, i.e.
        they index directly into a packet's header tuple.
        """
        return (self._memo or self._memoised())[0]

    @property
    def exact_slot(self) -> Optional[Tuple[tuple, tuple]]:
        """``(field indices, field values)``, a flow table's hash key for a
        fully specified match; ``None`` (masked fields, or no constraint)
        sends the rule to the table's wildcard list."""
        return (self._memo or self._memoised())[1]

    def compiled(self) -> Callable[[List[Optional[int]]], bool]:
        """A compiled classifier closure over the packet header values.

        The closure takes fixed-order header values (``packet._values``) and
        returns whether it satisfies every constraint.  Compiled once per
        match and cached; ``Match`` is immutable after construction so the
        cache never goes stale.
        """
        matcher = self._compiled
        if matcher is None:
            matcher = _compile_matcher(self.compiled_constraints())
            self._compiled = matcher
        return matcher

    # -- set algebra -----------------------------------------------------------
    def covers(self, other: "Match") -> bool:
        """True when every packet matching ``other`` also matches ``self``."""
        for field, (value, mask) in self._fields.items():
            if field not in other._fields:
                return False
            other_value, other_mask = other._fields[field]
            # self's constrained bits must be a subset of other's and agree.
            if (mask & other_mask) != mask:
                return False
            if (other_value & mask) != value:
                return False
        return True

    def overlaps(self, other: "Match") -> bool:
        """True when at least one packet matches both ``self`` and ``other``."""
        return self.intersection(other) is not None

    def intersection(self, other: "Match") -> Optional["Match"]:
        """The match describing packets matched by both, or ``None`` if disjoint."""
        merged: Dict[HeaderField, Tuple[int, int]] = {}
        # Canonical field order: set-union iteration follows the randomized
        # per-process string hash of the enum members, which would build
        # ``merged`` (and the resulting match's field order) differently run
        # to run.
        for field in sorted(set(self._fields) | set(other._fields),
                            key=lambda f: f.value):
            mine = self._fields.get(field)
            theirs = other._fields.get(field)
            if mine is None:
                merged[field] = theirs  # type: ignore[assignment]
                continue
            if theirs is None:
                merged[field] = mine
                continue
            value_a, mask_a = mine
            value_b, mask_b = theirs
            common = mask_a & mask_b
            if (value_a & common) != (value_b & common):
                return None
            merged[field] = (value_a | value_b, mask_a | mask_b)
        result = Match()
        result._fields = merged
        return result

    # -- construction helpers ---------------------------------------------------
    def extended(self, **kwargs) -> "Match":
        """A new match with additional/overridden exact-value constraints."""
        combined = Match(**kwargs)
        merged = dict(self._fields)
        merged.update(combined._fields)
        result = Match()
        result._fields = merged
        return result

    def example_packet_headers(self) -> Dict[HeaderField, int]:
        """Header values of one concrete packet satisfying this match: only
        the constrained fields, each at its constrained bits (zeros outside
        a mask); a wildcarded field is absent."""
        return {field: value for field, (value, _mask) in self._fields.items()}

    # -- dunder -------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        return isinstance(other, Match) and self._fields == other._fields

    def __hash__(self) -> int:
        value = self._hash
        if value is None:
            value = self._hash = hash((self._memo or self._memoised())[0])
        return value

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        if not self._fields:
            return "Match(*)"
        parts = []
        for field, (value, mask) in sorted(self._fields.items(), key=lambda kv: kv[0].value):
            spec = FIELD_REGISTRY[field]
            if mask == spec.max_value:
                parts.append(f"{field.value}={value}")
            else:
                parts.append(f"{field.value}={value}/{bin(mask).count('1')}")
        return "Match(" + ", ".join(parts) + ")"
