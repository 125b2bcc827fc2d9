"""Header-field registry.

OpenFlow 1.0 matches on a fixed 12-tuple of header fields.  The registry
below names those fields, records their bit widths, whether a switch can
rewrite them with a ``set_field`` action, and whether RUM may use them as a
probing field (the paper uses ToS; VLAN id and MPLS label are the documented
alternatives).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List


class HeaderField(str, Enum):
    """Canonical names of the header fields used throughout the repository."""

    IN_PORT = "in_port"
    ETH_SRC = "eth_src"
    ETH_DST = "eth_dst"
    ETH_TYPE = "eth_type"
    VLAN_ID = "vlan_id"
    VLAN_PCP = "vlan_pcp"
    MPLS_LABEL = "mpls_label"
    IP_SRC = "ip_src"
    IP_DST = "ip_dst"
    IP_PROTO = "ip_proto"
    IP_TOS = "ip_tos"
    TP_SRC = "tp_src"
    TP_DST = "tp_dst"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class FieldSpec:
    """Static description of one header field."""

    name: HeaderField
    bits: int
    rewritable: bool
    probe_candidate: bool
    description: str

    @property
    def max_value(self) -> int:
        """Largest representable value of the field."""
        return (1 << self.bits) - 1

    def validate(self, value: int) -> None:
        """Raise :class:`ValueError` if ``value`` does not fit in the field."""
        if not isinstance(value, int):
            raise ValueError(f"{self.name} value must be an int, got {type(value).__name__}")
        if not 0 <= value <= self.max_value:
            raise ValueError(
                f"{self.name} value {value} out of range 0..{self.max_value}"
            )


FIELD_REGISTRY: Dict[HeaderField, FieldSpec] = {
    spec.name: spec
    for spec in [
        FieldSpec(HeaderField.IN_PORT, 16, False, False, "switch ingress port"),
        FieldSpec(HeaderField.ETH_SRC, 48, True, False, "Ethernet source MAC"),
        FieldSpec(HeaderField.ETH_DST, 48, True, False, "Ethernet destination MAC"),
        FieldSpec(HeaderField.ETH_TYPE, 16, False, False, "EtherType"),
        FieldSpec(HeaderField.VLAN_ID, 12, True, True, "802.1Q VLAN identifier"),
        FieldSpec(HeaderField.VLAN_PCP, 3, True, False, "802.1Q priority code point"),
        FieldSpec(HeaderField.MPLS_LABEL, 20, True, True, "MPLS label"),
        FieldSpec(HeaderField.IP_SRC, 32, True, False, "IPv4 source address"),
        FieldSpec(HeaderField.IP_DST, 32, True, False, "IPv4 destination address"),
        FieldSpec(HeaderField.IP_PROTO, 8, False, False, "IPv4 protocol number"),
        FieldSpec(HeaderField.IP_TOS, 6, True, True, "IPv4 ToS / DSCP bits"),
        FieldSpec(HeaderField.TP_SRC, 16, True, False, "TCP/UDP source port"),
        FieldSpec(HeaderField.TP_DST, 16, True, False, "TCP/UDP destination port"),
    ]
}

#: Canonical field order used by the packet header tuple: enum declaration
#: order.  :class:`~repro.packet.packet.Packet` stores header values in a
#: fixed-size tuple indexed by this order instead of a dict — the data-plane
#: fast path relies on these indices (``in_port`` first: a miss's lookup key).
FIELD_ORDER: List[HeaderField] = list(HeaderField)

#: ``field -> tuple index``.  Because :class:`HeaderField` is a ``str`` enum,
#: members and their value strings hash and compare equal, so this single
#: mapping serves lookups by enum member *and* by plain string name.
FIELD_INDEX: Dict[HeaderField, int] = {
    member: index for index, member in enumerate(FIELD_ORDER)
}

#: Number of header fields (the length of a packet's header tuple).
FIELD_COUNT = len(FIELD_ORDER)

#: Per-index :class:`FieldSpec`, aligned with :data:`FIELD_ORDER`.
FIELD_SPECS_BY_INDEX: List[FieldSpec] = [
    FIELD_REGISTRY[member] for member in FIELD_ORDER
]

#: Per-index maximum value, aligned with :data:`FIELD_ORDER` (fast range
#: checks without attribute lookups).
FIELD_MAX_BY_INDEX: List[int] = [spec.max_value for spec in FIELD_SPECS_BY_INDEX]

# EtherType constants used by the traffic generators and probe construction.
ETH_TYPE_IP = 0x0800
ETH_TYPE_ARP = 0x0806
ETH_TYPE_VLAN = 0x8100

# IP protocol numbers.
IP_PROTO_ICMP = 1
IP_PROTO_TCP = 6
IP_PROTO_UDP = 17
