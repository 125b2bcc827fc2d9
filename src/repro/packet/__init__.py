"""Packet model shared by the data plane, the traffic generators and RUM's
data-plane probes.

A :class:`~repro.packet.packet.Packet` is a mapping of OpenFlow-1.0-style
header fields to concrete values plus a payload and bookkeeping metadata
(flow id, sequence number, creation time).  The header-field registry in
:mod:`repro.packet.fields` defines which fields exist, their widths, and
which ones are rewritable — the general probing technique needs to reserve a
rewritable field (ToS, VLAN or MPLS label) that live traffic does not use.
"""

from repro.packet.fields import (
    FIELD_REGISTRY,
    FieldSpec,
    HeaderField,
)
from repro.packet.addresses import (
    ip_to_int,
    int_to_ip,
    mac_to_int,
    prefix_mask,
)
from repro.packet.packet import Packet, make_ip_packet, make_probe_packet

__all__ = [
    "FIELD_REGISTRY",
    "FieldSpec",
    "HeaderField",
    "Packet",
    "int_to_ip",
    "ip_to_int",
    "mac_to_int",
    "make_ip_packet",
    "make_probe_packet",
    "prefix_mask",
]
