"""The switch data plane: the table packets actually hit.

The data plane owns its own :class:`~repro.openflow.flowtable.FlowTable`,
separate from the control plane's table.  The whole point of the paper is
that these two tables can disagree for hundreds of milliseconds; keeping them
as two distinct objects makes that divergence explicit and measurable
(:meth:`DataPlane.divergence_from`).

A lookup cache keeps per-packet cost low for the high-rate traffic used in
the end-to-end experiments.  It is ``{in_port: {header tuple: plan}}``,
keyed by the packet's own immutable header tuple, which every packet of a
flow shares (:class:`~repro.net.traffic.TrafficGenerator`), so a hop builds
no key: a hit hashes that tuple and finds it by identity.  The cache holds
*forwarding plans* — the matched entry's actions compiled by
:func:`~repro.openflow.actions.compile_actions`, with a rewriting rule's
output header tuple built once per cached header — so a hit only applies
one.  Any rule applied can change which entry a header tuple matches, so
the cache is cleared whenever one is (in a probing run nearly every probe
hop misses), and a miss is cheap: ``in_port`` leads the header tuple, so its
key is one concatenation, ``(in_port,) + values[1:]``; the table answers it
with one hash probe per rule signature; and the plan is kept on its entry
(``FlowEntry.plan``, compiled once per entry and ``actions`` binding, which
``FlowTable`` MODIFY rebinds and drops), so a miss is no recompile.

Packet ownership: a packet handed to a port's transmit is owned by the link;
the sender must not touch it again, so the packet a switch receives is held
by nobody else and travels on as the same object.  The data plane copies
only to rewrite; :class:`~repro.switches.base.Switch` copies per flooded port,
per PacketOut and for PacketIn capture (not per port of a multi-output rule, whose links
share one object and its hop trace, as ever — nothing in ``src/`` installs one).
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.obs.events import PHASE_HW_ACTIVATED
from repro.openflow.actions import compile_actions, rewritten
from repro.openflow.constants import CONTROLLER_PORT
from repro.openflow.flowtable import FlowEntry, FlowTable
from repro.openflow.messages import FlowMod
from repro.packet.packet import HeaderValues, Packet
from repro.sim.kernel import Simulator



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
        self._lookup_cache: Dict[int, Dict[HeaderValues, tuple]] = {}
        #: (time, flowmod xid) history of when each rule became visible to
        #: packets — the measurement layer uses this as ground truth for
        #: "data plane activation".
        self.apply_log: List[Tuple[float, int]] = []

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
    def _compile_plan(self, values: HeaderValues, in_port: int) -> tuple:
        """A cache miss: look ``values`` up as it arrived on ``in_port`` and
        cache the table's answer as ``(entry, rewritten header tuple or
        None, physical output ports, to_controller)``, compiling the entry's
        plan if it has none yet."""
        entry = self.table.lookup_values((in_port,) + values[1:])
        if entry is None:
            plan = (None, None, (), False)
        else:
            compiled = entry.plan
            if compiled is None:
                rewrites, ports = compile_actions(entry.actions)
                compiled = entry.plan = (
                    rewrites, tuple(port for port in ports if port != CONTROLLER_PORT),
                    CONTROLLER_PORT in ports)
            rewrites, ports, to_controller = compiled
            plan = (entry, rewritten(values, rewrites) if rewrites else None,
                    ports, to_controller)
        self._lookup_cache.setdefault(in_port, {})[values] = plan
        return plan

    def process_packet(self, packet: Packet, in_port: int) -> ForwardingResult:
        """Classify ``packet`` and compute its forwarding result.

        The result carries ``packet`` itself unless the matched rule rewrites
        headers; then a copy carries the rewritten header tuple and
        ``packet`` is untouched.
        """
        values = packet._values
        try:
            entry, out_values, ports, to_controller = self._lookup_cache[in_port][values]
        except KeyError:
            entry, out_values, ports, to_controller = self._compile_plan(values, in_port)
        if entry is None:
            return tuple.__new__(ForwardingResult, (packet, (), False, None))
        entry.packet_count += 1
        entry.byte_count += packet.total_size
        if out_values is not None:
            packet = packet.copy()
            packet._values = out_values
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
