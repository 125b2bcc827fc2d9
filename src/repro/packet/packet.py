"""The :class:`Packet` class and constructors for data-plane traffic and probes."""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.packet.addresses import ip_to_int, mac_to_int
from repro.packet.fields import (ETH_TYPE_IP, FIELD_COUNT, FIELD_INDEX, FIELD_MAX_BY_INDEX,
                                 FIELD_ORDER, FIELD_REGISTRY, HeaderField, IP_PROTO_UDP)

#: Ethernet + IPv4 + UDP header bytes every packet carries on the wire.
_HEADER_BYTES = 42

#: A packet's header values in :data:`~repro.packet.fields.FIELD_ORDER`,
#: ``None`` where a field is absent.
HeaderValues = Tuple[Optional[int], ...]


class PathNode(dict):
    """An interned hop trace: the names of the nodes visited, in order
    (``names``), keyed by name to the traces one hop longer (made on first
    use).  Equal paths are one node process-wide, so a hop is one subscript,
    a copy shares its trace and a delivery reads a path tuple that exists."""

    __slots__ = ("names",)

    def __init__(self, names: Tuple[str, ...] = ()) -> None:
        self.names = names

    def __missing__(self, name: str) -> "PathNode":
        node = self[name] = PathNode(self.names + (name,))
        return node


#: The trace of a packet that has visited no node yet.
NO_HOPS = PathNode()


class Packet:
    """A single data-plane packet.

    Header values are stored as integers in one immutable fixed-order tuple
    indexed by :data:`~repro.packet.fields.FIELD_INDEX` (``None`` marks an
    absent field, which the flow table treats as zero: OpenFlow 1.0 only
    wildcards matches).  The tuple is shared, not owned: a copy keeps it,
    every packet a traffic source sends for one flow carries its template's,
    and a rewrite (:meth:`set`, a rewriting rule) replaces it.  The
    forwarding fast path reads it directly (the plan cache is keyed by it);
    :attr:`headers` is the ``{HeaderField: value}`` view for construction
    and debugging.

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
        The :class:`PathNode` of the nodes visited so far; a host or switch
        taking the packet in moves it on: ``trace = trace[name]``.
    """

    __slots__ = ("_values", "payload_size", "total_size", "flow_id", "created_at", "sequence",
                 "is_probe", "trace")

    def __init__(self, headers: Dict[HeaderField, int], payload_size: int = 100,
                 flow_id: Optional[str] = None, created_at: float = 0.0,
                 sequence: int = 0, is_probe: bool = False) -> None:
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
        self._values = tuple(values)
        self.payload_size = int(payload_size)
        self.total_size = _HEADER_BYTES + self.payload_size
        self.flow_id = flow_id
        self.created_at = created_at
        self.sequence = sequence
        self.is_probe = is_probe
        self.trace = NO_HOPS

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
        """Rewrite a header field: this packet gets a new header tuple (any
        other packet sharing the old one keeps it)."""
        index = FIELD_INDEX.get(field)
        if index is None:
            index = FIELD_INDEX[HeaderField(field)]
        if not (isinstance(value, int) and 0 <= value <= FIELD_MAX_BY_INDEX[index]):
            FIELD_REGISTRY[FIELD_ORDER[index]].validate(value)
        values = self._values
        self._values = values[:index] + (value,) + values[index + 1:]

    def header_values(self) -> HeaderValues:
        """The fixed-order header tuple (shared, immutable)."""
        return self._values

    def copy(self) -> "Packet":
        """A copy with a new identity but the same headers, payload and trace.

        Switches copy packets before applying rewrite actions; the hop trace
        is carried over because the copy logically *is* the same packet
        continuing through the network.  The header tuple and the trace node
        are immutable, so the copy shares both (a rewrite gives the copy a
        new header tuple).
        """
        clone = Packet.__new__(Packet)
        clone._values = self._values
        clone.payload_size = self.payload_size
        clone.total_size = self.total_size
        clone.flow_id = self.flow_id
        clone.created_at = self.created_at
        clone.sequence = self.sequence
        clone.is_probe = self.is_probe
        clone.trace = self.trace
        return clone

    @classmethod
    def from_values(cls, values: HeaderValues, payload_size: int = 100,
                    flow_id: Optional[str] = None, created_at: float = 0.0,
                    sequence: int = 0, is_probe: bool = False) -> "Packet":
        """Build a packet from a pre-validated fixed-order header tuple.

        Fast path for the traffic generators; ``values`` must follow
        :data:`~repro.packet.fields.FIELD_ORDER` and is shared, immutable:
        every packet of a flow may carry the same tuple.
        """
        packet = cls.__new__(cls)
        packet._values = values
        packet.payload_size = payload_size
        packet.total_size = _HEADER_BYTES + payload_size
        packet.flow_id = flow_id
        packet.created_at = created_at
        packet.sequence = sequence
        packet.is_probe = is_probe
        packet.trace = NO_HOPS
        return packet

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        kind = "probe" if self.is_probe else "pkt"
        fields = ", ".join(f"{field.value}={value}" for field, value in sorted(
            self.headers.items(), key=lambda item: item[0].value))
        return f"<{kind} flow={self.flow_id} {fields}>"


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
    """Build a normal IPv4 data packet (a traffic source builds one per flow
    and sends its header tuple with every packet)."""
    return Packet({
        HeaderField.ETH_SRC: mac_to_int(eth_src),
        HeaderField.ETH_DST: mac_to_int(eth_dst),
        HeaderField.ETH_TYPE: ETH_TYPE_IP,
        HeaderField.VLAN_ID: vlan_id,
        HeaderField.VLAN_PCP: 0,
        HeaderField.IP_SRC: ip_to_int(ip_src),
        HeaderField.IP_DST: ip_to_int(ip_dst),
        HeaderField.IP_PROTO: ip_proto,
        HeaderField.IP_TOS: ip_tos,
        HeaderField.TP_SRC: tp_src,
        HeaderField.TP_DST: tp_dst,
    }, payload_size, flow_id, created_at, sequence)


def make_probe_packet(
    headers: Dict[HeaderField, int],
    *,
    probe_id: Optional[str] = None,
) -> Packet:
    """Build a RUM data-plane probe packet.

    Probes are small, carry no application payload, and are flagged so the
    delivery monitor does not count them as flow traffic (nor read their
    ``created_at``, which stays 0).  A technique that injects the same probe
    again and again validates it here once and hands this very packet to
    every PacketOut: the switch executing one copies it (the only copy).
    """
    return Packet(headers, payload_size=0, flow_id=probe_id, is_probe=True)
