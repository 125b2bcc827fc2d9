"""The :class:`Packet` class and constructors for data-plane traffic and probes."""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, List, Optional

from repro.packet.addresses import ip_to_int, mac_to_int
from repro.packet.fields import (
    ETH_TYPE_IP,
    FIELD_COUNT,
    FIELD_INDEX,
    FIELD_MAX_BY_INDEX,
    FIELD_ORDER,
    FIELD_REGISTRY,
    HeaderField,
    IP_PROTO_UDP,
)

_packet_ids = itertools.count(1)

#: Ethernet + IPv4 + UDP header bytes every packet carries on the wire.
_HEADER_BYTES = 42


class Packet:
    """A single data-plane packet.

    Header values are stored as integers in a fixed-order array indexed by
    :data:`~repro.packet.fields.FIELD_INDEX` (``None`` marks an absent
    field).  Absent fields are treated as zero by the flow table (OpenFlow
    1.0 semantics: a field always has *some* value; only matches can be
    wildcarded).  The :attr:`headers` property presents the classic
    ``{HeaderField: value}`` dict view for construction, wire encoding and
    debugging; the forwarding fast path reads the array directly.

    Parameters
    ----------
    headers:
        Mapping of header fields (members or their string names) to integer
        values.
    payload_size:
        Payload length in bytes, used by link models for serialisation delay.
    flow_id:
        Identifier of the application-level flow this packet belongs to
        (``None`` for control-plane-originated packets such as probes).
    created_at:
        Simulated time at which the packet was created by its sender.

    Attributes
    ----------
    total_size:
        Approximate wire size in bytes (headers + payload), fixed at
        construction: every link and every matched rule reads it.
    trace:
        Names of the nodes visited so far, appended by hosts and switches.
        Names only: nobody reads a hop's time, and a string appended to a list
        leaves nothing for the garbage collector to track (a tuple would).
    """

    __slots__ = (
        "packet_id",
        "_values",
        "payload_size",
        "total_size",
        "flow_id",
        "created_at",
        "sequence",
        "is_probe",
        "trace",
    )

    def __init__(
        self,
        headers: Dict[HeaderField, int],
        payload_size: int = 100,
        flow_id: Optional[str] = None,
        created_at: float = 0.0,
        sequence: int = 0,
        is_probe: bool = False,
    ) -> None:
        values: List[Optional[int]] = [None] * FIELD_COUNT
        field_index = FIELD_INDEX
        field_max = FIELD_MAX_BY_INDEX
        for field, value in headers.items():
            index = field_index.get(field)
            if index is None:
                # Re-raise through the enum for the canonical error message.
                index = field_index[HeaderField(field)]
            if not (isinstance(value, int) and 0 <= value <= field_max[index]):
                FIELD_REGISTRY[FIELD_ORDER[index]].validate(value)
            values[index] = value
        self.packet_id = next(_packet_ids)
        self._values = values
        self.payload_size = int(payload_size)
        self.total_size = _HEADER_BYTES + self.payload_size
        self.flow_id = flow_id
        self.created_at = created_at
        self.sequence = sequence
        self.is_probe = is_probe
        self.trace: List[str] = []

    # -- header access -----------------------------------------------------
    @property
    def headers(self) -> Dict[HeaderField, int]:
        """The carried header fields as a ``{HeaderField: value}`` dict.

        A fresh dict per access — mutate the packet through :meth:`set`,
        not through this view.
        """
        values = self._values
        return {
            FIELD_ORDER[index]: value
            for index, value in enumerate(values)
            if value is not None
        }

    def get(self, field: HeaderField | str, default: int = 0) -> int:
        """Value of ``field`` (0 when the packet does not carry it)."""
        index = FIELD_INDEX.get(field)
        if index is None:
            index = FIELD_INDEX[HeaderField(field)]
        value = self._values[index]
        return default if value is None else value

    def set(self, field: HeaderField | str, value: int) -> None:
        """Set (rewrite) a header field in place."""
        index = FIELD_INDEX.get(field)
        if index is None:
            index = FIELD_INDEX[HeaderField(field)]
        if not (isinstance(value, int) and 0 <= value <= FIELD_MAX_BY_INDEX[index]):
            FIELD_REGISTRY[FIELD_ORDER[index]].validate(value)
        self._values[index] = value

    def header_values(self) -> List[Optional[int]]:
        """The internal fixed-order value array (treat as read-only)."""
        return self._values

    def copy(self) -> "Packet":
        """A copy with a new identity but the same headers, payload and trace.

        Switches copy packets before applying rewrite actions; the hop trace
        (a list of node names, cloned) is carried over because the copy
        logically *is* the same packet continuing through the network.
        Header values were validated when first set, so the copy clones the
        array without re-validating.
        """
        clone = Packet.__new__(Packet)
        clone.packet_id = next(_packet_ids)
        clone._values = self._values.copy()
        clone.payload_size = self.payload_size
        clone.total_size = self.total_size
        clone.flow_id = self.flow_id
        clone.created_at = self.created_at
        clone.sequence = self.sequence
        clone.is_probe = self.is_probe
        clone.trace = self.trace.copy()
        return clone

    @classmethod
    def from_values(
        cls,
        values: List[Optional[int]],
        payload_size: int = 100,
        flow_id: Optional[str] = None,
        created_at: float = 0.0,
        sequence: int = 0,
        is_probe: bool = False,
    ) -> "Packet":
        """Build a packet from a pre-validated fixed-order value array.

        Fast path for the traffic generators; ``values`` must follow
        :data:`~repro.packet.fields.FIELD_ORDER` and is owned by the packet
        after the call.
        """
        packet = cls.__new__(cls)
        packet.packet_id = next(_packet_ids)
        packet._values = values
        packet.payload_size = payload_size
        packet.total_size = _HEADER_BYTES + payload_size
        packet.flow_id = flow_id
        packet.created_at = created_at
        packet.sequence = sequence
        packet.is_probe = is_probe
        packet.trace = []
        return packet

    def items(self) -> Iterator:
        """Iterate over ``(field, value)`` pairs."""
        return iter(self.headers.items())

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        kind = "probe" if self.is_probe else "pkt"
        fields = ", ".join(f"{field.value}={value}" for field, value in sorted(
            self.headers.items(), key=lambda item: item[0].value))
        return f"<{kind} #{self.packet_id} flow={self.flow_id} {fields}>"


#: Field indices used by :func:`make_ip_packet` (module-level constants keep
#: the per-packet cost to plain list stores).
_IDX_ETH_SRC = FIELD_INDEX[HeaderField.ETH_SRC]
_IDX_ETH_DST = FIELD_INDEX[HeaderField.ETH_DST]
_IDX_ETH_TYPE = FIELD_INDEX[HeaderField.ETH_TYPE]
_IDX_VLAN_ID = FIELD_INDEX[HeaderField.VLAN_ID]
_IDX_VLAN_PCP = FIELD_INDEX[HeaderField.VLAN_PCP]
_IDX_IP_SRC = FIELD_INDEX[HeaderField.IP_SRC]
_IDX_IP_DST = FIELD_INDEX[HeaderField.IP_DST]
_IDX_IP_PROTO = FIELD_INDEX[HeaderField.IP_PROTO]
_IDX_IP_TOS = FIELD_INDEX[HeaderField.IP_TOS]
_IDX_TP_SRC = FIELD_INDEX[HeaderField.TP_SRC]
_IDX_TP_DST = FIELD_INDEX[HeaderField.TP_DST]

_MAX_VLAN_ID = FIELD_MAX_BY_INDEX[_IDX_VLAN_ID]
_MAX_IP_PROTO = FIELD_MAX_BY_INDEX[_IDX_IP_PROTO]
_MAX_IP_TOS = FIELD_MAX_BY_INDEX[_IDX_IP_TOS]
_MAX_TP = FIELD_MAX_BY_INDEX[_IDX_TP_SRC]


def make_ip_packet(
    ip_src: str | int,
    ip_dst: str | int,
    *,
    eth_src: str | int = "00:00:00:00:00:01",
    eth_dst: str | int = "00:00:00:00:00:02",
    ip_proto: int = IP_PROTO_UDP,
    ip_tos: int = 0,
    tp_src: int = 10000,
    tp_dst = 80,
    vlan_id: int = 0,
    payload_size: int = 100,
    flow_id: Optional[str] = None,
    created_at: float = 0.0,
    sequence: int = 0,
) -> Packet:
    """Build a normal IPv4 data packet (used by the traffic generators)."""
    for value, limit, label in (
        (vlan_id, _MAX_VLAN_ID, "vlan_id"),
        (ip_proto, _MAX_IP_PROTO, "ip_proto"),
        (ip_tos, _MAX_IP_TOS, "ip_tos"),
        (tp_src, _MAX_TP, "tp_src"),
        (tp_dst, _MAX_TP, "tp_dst"),
    ):
        if not (isinstance(value, int) and 0 <= value <= limit):
            raise ValueError(f"{label} value {value!r} out of range 0..{limit}")
    values: List[Optional[int]] = [None] * FIELD_COUNT
    values[_IDX_ETH_SRC] = mac_to_int(eth_src)
    values[_IDX_ETH_DST] = mac_to_int(eth_dst)
    values[_IDX_ETH_TYPE] = ETH_TYPE_IP
    values[_IDX_VLAN_ID] = vlan_id
    values[_IDX_VLAN_PCP] = 0
    values[_IDX_IP_SRC] = ip_to_int(ip_src)
    values[_IDX_IP_DST] = ip_to_int(ip_dst)
    values[_IDX_IP_PROTO] = ip_proto
    values[_IDX_IP_TOS] = ip_tos
    values[_IDX_TP_SRC] = tp_src
    values[_IDX_TP_DST] = tp_dst
    return Packet.from_values(
        values,
        payload_size=int(payload_size),
        flow_id=flow_id,
        created_at=created_at,
        sequence=sequence,
    )


def make_probe_packet(
    headers: Dict[HeaderField, int],
    *,
    created_at: float = 0.0,
    probe_id: Optional[str] = None,
) -> Packet:
    """Build a RUM data-plane probe packet.

    Probes are small, carry no application payload, and are flagged so the
    delivery monitor does not count them as flow traffic.  A technique that
    injects the same probe again and again validates it here once and sends
    ``template.copy()`` with a fresh ``created_at`` each time.
    """
    return Packet(
        headers,
        payload_size=0,
        flow_id=probe_id,
        created_at=created_at,
        is_probe=True,
    )
