"""The switch data plane: the table packets actually hit.

The data plane owns its own :class:`~repro.openflow.flowtable.FlowTable`,
separate from the control plane's table.  The whole point of the paper is
that these two tables can disagree for hundreds of milliseconds; keeping them
as two distinct objects makes that divergence explicit and measurable
(:meth:`DataPlane.divergence_from`).

A lookup cache keyed by the packet's full header tuple keeps per-packet cost
low for the high-rate traffic used in the end-to-end experiments.  It holds
*forwarding plans* — the table's answer compiled once per miss by
:func:`~repro.openflow.actions.compile_actions` — so a hit only applies one.
``FlowTable`` MODIFY rebinds ``entry.actions``: a plan must never outlive a
data-plane mutation, so the cache is cleared whenever a rule is applied.

Packet ownership: a packet handed to a port's transmit is owned by the link;
the sender must not touch it again, so the packet a switch receives is held
by nobody else and travels on as the same object.  The data plane copies
only to rewrite; :class:`~repro.switches.base.Switch` copies per flooded port
and for PacketIn capture (not per port of a multi-output rule, whose links
share one object and its hop trace, as ever — nothing in ``src/`` installs one).
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.obs.events import PHASE_HW_ACTIVATED
from repro.openflow.actions import compile_actions
from repro.openflow.constants import CONTROLLER_PORT
from repro.openflow.flowtable import FlowEntry, FlowTable
from repro.openflow.messages import FlowMod
from repro.packet.fields import FIELD_INDEX, HeaderField
from repro.packet.packet import Packet
from repro.sim.kernel import Simulator

#: Array index of ``in_port`` in a packet's header value array.
_IN_PORT_INDEX = FIELD_INDEX[HeaderField.IN_PORT]


class ForwardingResult(NamedTuple):
    """Outcome of processing one packet in the data plane.

    ``packet`` (the input object, or a rewritten copy) leaves on the physical
    ``output_ports`` (the cached plan's own tuple) and, if ``to_controller``,
    a copy goes into a PacketIn; ``matched_entry`` is ``None`` on a table miss.
    The data plane builds it with ``tuple.__new__`` from the complete field
    tuple: the generated ``__new__`` would be a Python frame per packet hop.
    """

    packet: Packet
    output_ports: Tuple[int, ...] = ()
    to_controller: bool = False
    matched_entry: Optional[FlowEntry] = None


class DataPlane:
    """Data-plane forwarding state and packet processing."""

    def __init__(self, sim: Simulator, table_mode: str = "priority",
                 capacity: Optional[int] = None, name: str = "dataplane") -> None:
        self.sim = sim
        self.table = FlowTable(mode=table_mode, capacity=capacity, name=name)
        self.name = name
        #: Owning switch, for trace events (the table is named ``<switch>.data``).
        self.switch_name = name[:-5] if name.endswith(".data") else name
        self._lookup_cache: Dict[Tuple, tuple] = {}
        #: (time, flowmod xid) history of when each rule became visible to
        #: packets — the measurement layer uses this as ground truth for
        #: "data plane activation".
        self.apply_log: List[Tuple[float, int]] = []
        self.packets_dropped = 0

    # -- rule application -----------------------------------------------------
    def apply_flowmod(self, flowmod: FlowMod, now: float) -> List[FlowEntry]:
        """Apply a rule modification to the data plane (cache is invalidated)."""
        entries = self.table.apply_flowmod(flowmod, now=now)
        self._lookup_cache.clear()
        self.apply_log.append((now, flowmod.xid))
        tr = self.sim.tracer
        if tr is not None:
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
    def _compile_plan(self, key: Tuple) -> tuple:
        """A cache miss: look ``key`` up and compile the table's answer into
        ``(entry, rewrites, physical output ports, to_controller)``."""
        entry = self.table.lookup_values(key)
        if entry is None:
            return (None, (), (), False)
        rewrites, ports = compile_actions(entry.actions)
        return (entry, rewrites,
                tuple(port for port in ports if port != CONTROLLER_PORT),
                CONTROLLER_PORT in ports)

    def process_packet(self, packet: Packet, in_port: int) -> ForwardingResult:
        """Classify ``packet`` and compute its forwarding result.

        The result carries ``packet`` itself unless the matched rule rewrites
        headers; then the rewrites go to a copy and ``packet`` is untouched.
        """
        # Cache key: the fixed-order value array with ``in_port`` (canonical as is).
        key = packet._values.copy()
        key[_IN_PORT_INDEX] = in_port
        key = tuple(key)
        plan = self._lookup_cache.get(key)
        if plan is None:
            plan = self._lookup_cache[key] = self._compile_plan(key)
        entry, rewrites, ports, to_controller = plan
        if entry is None:
            self.packets_dropped += 1
            return tuple.__new__(ForwardingResult, (packet, (), False, None))
        entry.packet_count += 1
        entry.byte_count += packet.total_size
        if rewrites:
            packet = packet.copy()
            values = packet._values
            for index, value in rewrites:
                values[index] = value
        if not ports and not to_controller:
            self.packets_dropped += 1
        return tuple.__new__(ForwardingResult, (packet, ports, to_controller, entry))

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
        return f"<DataPlane {self.name} rules={len(self.table)}>"
