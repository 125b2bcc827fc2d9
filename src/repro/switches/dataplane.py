"""The switch data plane: the table packets actually hit.

The data plane owns its own :class:`~repro.openflow.flowtable.FlowTable`,
separate from the control plane's table.  The whole point of the paper is
that these two tables can disagree for hundreds of milliseconds; keeping them
as two distinct objects makes that divergence explicit and measurable
(:meth:`DataPlane.divergence_from`).

A plan cache, ``{in_port: {header tuple: plan}}``, keeps per-packet cost
low: it is keyed by the packet's own header tuple, which every packet of a
flow shares, so a hop builds no key and a hit finds the tuple by identity.
A plan is the matched entry's actions compiled by
:func:`~repro.openflow.actions.compile_actions`, with a rewriting rule's
output header tuple built once per cached header (``_compile_plan`` states
the layout).  The data plane builds plans and the switch applies them:
``Switch.receive_packet`` looks a packet up and applies a hit itself, and
only a miss calls :meth:`DataPlane.process_packet`.  Any rule applied can
change which entry a header tuple matches, so the cache is cleared whenever
one is (in a probing run nearly every probe hop misses), and a miss is cheap:
one failed lookup; its table key is ``(in_port,) + values[1:]``, answered
with one hash probe per rule signature; and the plan is kept on its entry
(``FlowEntry.plan``, compiled once per ``actions`` binding).

A hop counts nothing: the data plane keeps no per-rule packet or byte
counters, because no message a run sends asks for them.

Packet ownership: a packet handed to a port's transmit is owned by the link;
the sender must not touch it again, so the packet a switch receives is held
by nobody else and travels on as the same object.  Applying a plan copies
only to rewrite; the switch also copies per flooded port, per PacketOut and
for PacketIn capture (not per port of a multi-output rule, whose links share
one object — nothing in ``src/`` installs one).
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
    ``output_ports`` and, if ``to_controller``, a copy goes into a PacketIn;
    ``matched_entry`` is ``None`` on a table miss.  It is built with
    ``tuple.__new__``: the generated ``__new__`` would be a frame per miss.
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
        #: Cleared, never rebound: the owning switch holds it.
        self.plan_cache: Dict[int, Dict[HeaderValues, tuple]] = {}
        #: (time, flowmod xid) history of when each rule became visible to
        #: packets — the measurement layer uses this as ground truth for
        #: "data plane activation".
        self.apply_log: List[Tuple[float, int]] = []

    # -- rule application -----------------------------------------------------
    def apply_flowmod(self, flowmod: FlowMod, now: float) -> List[FlowEntry]:
        """Apply a rule modification to the data plane (cache is invalidated)."""
        entries = self.table.apply_flowmod(flowmod, now=now)
        self.plan_cache.clear()
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
        self.plan_cache.clear()

    # -- packet processing --------------------------------------------------------
    def _compile_plan(self, values: HeaderValues, in_port: int) -> tuple:
        """A cache miss: look ``values`` up as it arrived on ``in_port`` and
        cache the table's answer as a plan, ``(entry, rewritten header tuple
        or None, physical output ports, to_controller)``, compiling the
        entry's plan if it has none yet (``Switch.receive_packet`` reads it)."""
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
        self.plan_cache.setdefault(in_port, {})[values] = plan
        return plan

    def process_packet(self, packet: Packet, in_port: int) -> ForwardingResult:
        """Classify ``packet`` against the table (the switch's miss path: no
        cache lookup), cache its plan and compute its forwarding result.

        The result carries ``packet`` itself unless the matched rule rewrites
        headers; then a copy carries the rewritten header tuple and
        ``packet`` is untouched.
        """
        entry, out_values, ports, to_controller = self._compile_plan(packet._values, in_port)
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
