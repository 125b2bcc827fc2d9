"""The switch data plane: the table packets actually hit.

The data plane owns its own :class:`~repro.openflow.flowtable.FlowTable`,
separate from the control plane's table.  The whole point of the paper is
that these two tables can disagree for hundreds of milliseconds; keeping them
as two distinct objects makes that divergence explicit and measurable
(:meth:`DataPlane.divergence_from`).

A lookup cache keyed by the packet's full header tuple keeps per-packet cost
low for the high-rate traffic used in the end-to-end experiments; the cache
is invalidated whenever a rule is applied to the data plane.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.obs import tracer as obs_tracer
from repro.obs.events import PHASE_HW_ACTIVATED
from repro.openflow.actions import apply_actions
from repro.openflow.constants import CONTROLLER_PORT
from repro.openflow.flowtable import FlowEntry, FlowTable
from repro.openflow.messages import FlowMod
from repro.packet.fields import FIELD_INDEX, HeaderField
from repro.packet.packet import Packet

#: Array index of ``in_port`` in a packet's header value array.
_IN_PORT_INDEX = FIELD_INDEX[HeaderField.IN_PORT]

#: Cache-miss sentinel (``None`` is a valid cached value: a table miss).
_MISS = object()


@dataclass
class ForwardingResult:
    """Outcome of processing one packet in the data plane."""

    #: Physical output ports the (possibly rewritten) packet must be sent to.
    output_ports: List[int] = field(default_factory=list)
    #: Whether a copy must be encapsulated in a PacketIn to the controller.
    to_controller: bool = False
    #: The rule that matched, or ``None`` on a table miss.
    matched_entry: Optional[FlowEntry] = None
    #: The packet after rewrite actions were applied.
    packet: Optional[Packet] = None

    @property
    def dropped(self) -> bool:
        """True when the packet leaves the switch on no port at all."""
        return not self.output_ports and not self.to_controller


class DataPlane:
    """Data-plane forwarding state and packet processing."""

    def __init__(self, table_mode: str = "priority", capacity: Optional[int] = None,
                 name: str = "dataplane") -> None:
        self.table = FlowTable(mode=table_mode, capacity=capacity, name=name)
        self.name = name
        #: Owning switch, for trace events (the table is named ``<switch>.data``).
        self.switch_name = name[:-5] if name.endswith(".data") else name
        self._lookup_cache: Dict[Tuple, Optional[FlowEntry]] = {}
        #: (time, flowmod xid) history of when each rule became visible to
        #: packets — the measurement layer uses this as ground truth for
        #: "data plane activation".
        self.apply_log: List[Tuple[float, int]] = []
        self.packets_processed = 0
        self.packets_dropped = 0

    # -- rule application -----------------------------------------------------
    def apply_flowmod(self, flowmod: FlowMod, now: float) -> List[FlowEntry]:
        """Apply a rule modification to the data plane (cache is invalidated)."""
        entries = self.table.apply_flowmod(flowmod, now=now)
        self._lookup_cache.clear()
        self.apply_log.append((now, flowmod.xid))
        tr = obs_tracer.TRACER
        if tr.active:
            tr.rule(PHASE_HW_ACTIVATED, now, self.switch_name, flowmod.xid)
        return entries

    def occupancy(self) -> int:
        """Number of rules currently visible to packets."""
        return len(self.table)

    def wipe(self) -> None:
        """Crash semantics: every rule vanishes from the data plane at once."""
        self.table.clear()
        self._lookup_cache.clear()

    # -- packet processing --------------------------------------------------------
    def _cache_key(self, packet: Packet, in_port: int) -> Tuple:
        """Full-header cache key: the fixed-order value array with ``in_port``.

        Field order is static (:data:`~repro.packet.fields.FIELD_ORDER`), so
        no sorting is needed — the array is already canonical.
        """
        key = packet._values.copy()
        key[_IN_PORT_INDEX] = in_port
        return tuple(key)

    def process_packet(self, packet: Packet, in_port: int) -> ForwardingResult:
        """Classify ``packet`` and compute its forwarding result.

        Rewrite actions are applied to a copy so the caller's packet object
        (still owned by the upstream link) is not mutated.
        """
        self.packets_processed += 1
        key = self._cache_key(packet, in_port)
        entry = self._lookup_cache.get(key, _MISS)
        if entry is _MISS:
            entry = self.table.lookup_values(key)
            self._lookup_cache[key] = entry

        if entry is None:
            self.packets_dropped += 1
            return ForwardingResult(packet=packet)

        entry.record_hit(packet)
        forwarded = packet.copy()
        ports = apply_actions(forwarded, entry.actions)
        output_ports = [port for port in ports if port != CONTROLLER_PORT]
        to_controller = CONTROLLER_PORT in ports
        if not ports:
            self.packets_dropped += 1
        return ForwardingResult(
            output_ports=output_ports,
            to_controller=to_controller,
            matched_entry=entry,
            packet=forwarded,
        )

    # -- diagnostics -----------------------------------------------------------------
    def divergence_from(self, control_table: FlowTable) -> Tuple[set, set]:
        """Rules only in the control plane and rules only in the data plane.

        Returns a pair of signature sets ``(control_only, data_only)``; both
        empty means the planes agree.
        """
        control = control_table.signature_set()
        data = self.table.signature_set()
        return control - data, data - control

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<DataPlane {self.name} rules={len(self.table)} pkts={self.packets_processed}>"
