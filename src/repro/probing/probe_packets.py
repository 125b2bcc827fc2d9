"""Probe packet generation for the general probing technique.

Given the rule RUM wants to confirm (at switch B) and RUM's mirror of B's
flow table, build the header values of a packet that

1. matches the probed rule once the rule is installed,
2. carries the probe-catch value ``S_C`` of the next-hop switch C in the
   reserved field H (so C reports it to the controller),
3. is *not* captured by any higher-priority rule overlapping the probed rule
   (otherwise the probe never exercises the probed rule), and
4. is distinguishable from what happens while the probed rule is still
   absent: the lower-priority rule that would match the probe must have a
   different externally observable forwarding behaviour (different output
   port or different rewrites) — a probe that is forwarded identically either
   way proves nothing.

Both table questions are a first-match lookup, answered by the mirror's own
index (:meth:`FlowTable.lookup_values`) rather than by testing every rule:
(3) holds when the first match of the candidate headers is not of higher
priority than the probed rule, and the rule of (4) is the first match with
the probed identity ``(priority, match)`` set aside.  A probe therefore costs
a few lookups, whatever the table's occupancy.

Exact probe generation is NP-hard in general (the paper cites header-space
work); like those systems we use a heuristic that works for realistic tables:
start from a packet inside the probed rule's match and perturb the fields the
rule leaves wildcarded to escape conflicting higher-priority rules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.openflow.actions import Action, actions_signature
from repro.openflow.flowtable import FlowEntry, FlowTable
from repro.openflow.match import Match
from repro.packet.fields import (
    ETH_TYPE_IP,
    FIELD_ORDER,
    FIELD_REGISTRY,
    HeaderField,
    IP_PROTO_UDP,
)


class ProbeGenerationError(RuntimeError):
    """Raised when no usable probe packet exists for a rule.

    RUM reacts to this by falling back to a control-plane technique for the
    affected rule (Section 3.2.2, "Overlapping rules").
    """


@dataclass(frozen=True)
class RuleView:
    """The minimal view of the probed rule that probe generation needs."""

    match: Match
    priority: int
    actions: Tuple[Action, ...]

    @classmethod
    def from_flowmod(cls, flowmod) -> "RuleView":
        """Build a view from a FlowMod."""
        return cls(match=flowmod.match, priority=flowmod.priority,
                   actions=tuple(flowmod.actions))


#: Baseline header values of a probe packet before rule constraints are applied.
_DEFAULT_HEADERS: Dict[HeaderField, int] = {
    HeaderField.ETH_SRC: 0x0000DEADBEEF,
    HeaderField.ETH_DST: 0x0000CAFEBABE,
    HeaderField.ETH_TYPE: ETH_TYPE_IP,
    HeaderField.VLAN_ID: 0,
    HeaderField.VLAN_PCP: 0,
    HeaderField.IP_SRC: 0x0A00FE01,
    HeaderField.IP_DST: 0x0A00FE02,
    HeaderField.IP_PROTO: IP_PROTO_UDP,
    HeaderField.IP_TOS: 0,
    HeaderField.TP_SRC: 40000,
    HeaderField.TP_DST: 40001,
}

#: Fields the perturbation heuristic is allowed to vary when escaping a
#: conflicting higher-priority rule (transport ports and addresses are the
#: fields realistic ACL/forwarding tables discriminate on).
_PERTURBABLE_FIELDS = (
    HeaderField.TP_SRC,
    HeaderField.TP_DST,
    HeaderField.IP_SRC,
    HeaderField.IP_DST,
    HeaderField.VLAN_PCP,
)


def probe_key(headers: Dict[HeaderField, int]) -> Tuple:
    """Canonical hashable identity of a probe packet's headers.

    RUM uses this key to associate a returning PacketIn with the pending rule
    whose probe it is — matching on the packet contents, not on any metadata
    that would not survive a real network.
    """
    interesting = (
        HeaderField.IP_SRC,
        HeaderField.IP_DST,
        HeaderField.IP_PROTO,
        HeaderField.IP_TOS,
        HeaderField.TP_SRC,
        HeaderField.TP_DST,
        HeaderField.VLAN_ID,
    )
    return tuple(headers.get(field, 0) for field in interesting)


def _first_match(
    table: FlowTable,
    headers: Dict[HeaderField, int],
    aside: Optional[Tuple[int, Match]] = None,
) -> Optional[FlowEntry]:
    """The rule of ``table`` that catches ``headers`` (without ``aside``)."""
    return table.lookup_values([headers.get(field) for field in FIELD_ORDER], aside)


def _captured_above(table: FlowTable, headers: Dict[HeaderField, int], priority: int) -> bool:
    """Whether a rule of higher priority than ``priority`` catches ``headers``."""
    first = _first_match(table, headers)
    return first is not None and first.priority > priority


def generate_probe_headers(
    probed: RuleView,
    table: FlowTable,
    overrides: Optional[Dict[HeaderField, int]] = None,
    max_attempts: int = 16,
) -> Dict[HeaderField, int]:
    """Header values of a probe packet for ``probed`` given B's table.

    ``table`` is RUM's mirror of B (a priority-mode :class:`FlowTable`, so
    its first match is the highest-priority one); it may or may not hold
    ``probed`` already.

    ``overrides`` carries the values RUM must force into the packet — the
    probe-catch value of the next-hop switch in the reserved field, for
    example.  Raises :class:`ProbeGenerationError` when the rule cannot be
    probed (covered by higher-priority rules, indistinguishable from a
    lower-priority rule, or conflicting with the required overrides).
    """
    overrides = dict(overrides or {})

    # Requirement: the probed rule must not pin an overridden field to a
    # different value, otherwise the probe cannot both match the rule and
    # carry the catch value.
    for field, value in overrides.items():
        required = probed.match.value_of(field)
        if required is not None and required != value:
            raise ProbeGenerationError(
                f"probed rule constrains {field} to {required}, "
                f"but probing requires value {value}"
            )
        if not probed.match.is_wildcard(field) and probed.match.value_of(field) is None:
            raise ProbeGenerationError(
                f"probed rule uses a masked match on {field}; probing field must be free"
            )

    headers: Dict[HeaderField, int] = dict(_DEFAULT_HEADERS)
    headers.update(probed.match.example_packet_headers())
    headers.update(overrides)

    attempt = 0
    perturb_index = 0
    while attempt < max_attempts:
        attempt += 1
        if not _captured_above(table, headers, probed.priority):
            break
        # Try to escape the conflict by changing a field the probed
        # rule leaves wildcarded (so the probe still matches the probed rule)
        # and that is not pinned by an override.
        escaped = False
        for field in _PERTURBABLE_FIELDS:
            if field in overrides or not probed.match.is_wildcard(field):
                continue
            spec = FIELD_REGISTRY[field]
            new_value = (headers.get(field, 0) + 7919 + perturb_index) % (spec.max_value + 1)
            perturb_index += 1
            candidate = dict(headers)
            candidate[field] = new_value
            if not _captured_above(table, candidate, probed.priority):
                headers = candidate
                escaped = True
                break
        if not escaped:
            raise ProbeGenerationError(
                "probed rule is covered by higher-priority rules; no probe packet escapes them"
            )
    else:
        raise ProbeGenerationError(
            f"could not find a conflict-free probe packet in {max_attempts} attempts"
        )

    shadow = _first_match(table, headers, aside=(probed.priority, probed.match))
    if shadow is not None and (actions_signature(shadow.actions)
                               == actions_signature(probed.actions)):
        raise ProbeGenerationError(
            "a lower-priority rule forwards the probe identically to the probed rule; "
            "the probe cannot distinguish them"
        )
    return headers
