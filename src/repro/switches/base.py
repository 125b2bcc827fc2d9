"""The composed switch model: ports + control plane + data plane."""

from __future__ import annotations

import zlib
from bisect import bisect_right
from typing import Callable, Dict, List, Optional

from repro.openflow.actions import Action, apply_actions
from repro.openflow.connection import ConnectionEndpoint
from repro.openflow.constants import CONTROLLER_PORT, FLOOD_PORT, PacketInReason
from repro.openflow.messages import FlowMod, OFMessage, PacketIn
from repro.packet.packet import Packet
from repro.sim.kernel import Simulator
from repro.sim.rng import SeededRandom
from repro.switches.controlplane import ControlPlane
from repro.switches.dataplane import DataPlane
from repro.switches.profiles import SwitchProfile

#: Signature of the callable a port uses to hand a packet to its link:
#: ``(packet) -> None``.
PortTransmit = Callable[[Packet], None]


class Switch:
    """One OpenFlow switch in the simulated network.

    The switch is profile-driven: all behavioural differences between the
    well-behaved software switches and the buggy hardware switch live in the
    :class:`~repro.switches.profiles.SwitchProfile`, not in subclasses.
    :class:`~repro.switches.software.SoftwareSwitch` and
    :class:`~repro.switches.hardware.HardwareSwitch` only pick defaults.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        profile: SwitchProfile,
        datapath_id: Optional[int] = None,
        rng: Optional[SeededRandom] = None,
    ) -> None:
        self.sim = sim
        self.name = name
        self.profile = profile
        #: What links add to a packet's due time (see :mod:`repro.net.link`).
        self.ingress_latency = profile.forwarding_latency
        # Process-stable default: ``hash()`` on strings is randomized per
        # interpreter (PYTHONHASHSEED), which made the derived datapath id —
        # and the rng seed below — vary run to run for directly-constructed
        # switches (the Network always passes both explicitly).
        if datapath_id is None:
            datapath_id = zlib.crc32(name.encode("utf-8")) % (1 << 32)
        self.datapath_id = datapath_id
        self.rng = rng or SeededRandom(self.datapath_id & 0xFFFF)

        self.dataplane = DataPlane(
            sim,
            table_mode=profile.table_mode,
            capacity=profile.table_capacity,
            name=f"{name}.data",
        )
        self.controlplane = ControlPlane(
            sim,
            profile,
            send_to_controller=self._send_to_controller,
            apply_to_dataplane=self.dataplane.apply_flowmod,
            inject_packet=self.inject_packet,
            rng=self.rng.fork("controlplane"),
            datapath_id=self.datapath_id,
            ports=[],
            name=name,
            dataplane_table=self.dataplane.table,
        )

        #: Empty while a flap holds the ports (kept in ``_flapped_ports``) dark.
        self._ports: Dict[int, PortTransmit] = {}
        self._flapped_ports: Optional[Dict[int, PortTransmit]] = None
        self._controller_endpoint: Optional[ConnectionEndpoint] = None
        self._started = False
        self._crashed = False
        #: When the ports went dark (crash or flap) and lit again, alternating
        #: (odd length: dark now): a packet is judged as of its arrival.
        self._dark_log: List[float] = []
        #: Bumped on every crash; work captured under an older epoch (a
        #: delayed fault callback, a handler mid-yield) must not take effect.
        self.crash_epoch = 0
        #: ``(switch name, "crash"|"restore")`` observers — the recovery
        #: subsystem's reconnect hook.  Empty (and never iterated) unless
        #: something registered, so the fault-free path is unchanged.
        self._lifecycle_listeners: List[Callable[[str, str], None]] = []

        # Packets that reached a lit port (read by tests and the hop model).
        self.packets_received = 0

    # -- wiring ----------------------------------------------------------------
    def attach_port(self, port_no: int, transmit: PortTransmit) -> None:
        """Attach a link transmit function to ``port_no``."""
        if port_no in self._ports:
            raise ValueError(f"port {port_no} of {self.name} already attached")
        self._ports[port_no] = transmit
        self.controlplane.ports = sorted(self._ports)

    @property
    def port_numbers(self) -> List[int]:
        """The attached port numbers, sorted."""
        return sorted(self._ports)

    def connect_controller(self, endpoint: ConnectionEndpoint) -> None:
        """Bind the switch to its side of a controller connection."""
        self._controller_endpoint = endpoint
        endpoint.on_message(self.controlplane.receive)

    def start(self) -> None:
        """Start the switch's control-plane processes."""
        if self._started:
            return
        self._started = True
        self.controlplane.start()

    def close(self) -> None:
        """Unplug the ports, the controller connection and the lifecycle
        listeners, and cut the agent's callbacks into this switch (see
        :meth:`repro.net.network.Network.close`)."""
        self._ports.clear()
        self._flapped_ports = None
        self._controller_endpoint = None
        self._lifecycle_listeners.clear()
        self.controlplane.close()

    # -- lifecycle faults --------------------------------------------------------
    @property
    def crashed(self) -> bool:
        """Whether the switch is currently down (see :meth:`crash`)."""
        return self._crashed

    def crash(self, wipe_control_plane: bool = True) -> None:
        """Power-fail the switch: ports go dark and the flow tables are wiped.

        While crashed, every packet arriving on a port (or still inside its
        ingress delay) and every message on the control connection is
        silently lost, and in-flight data-plane synchronisation state is
        discarded.  ``wipe_control_plane=False`` models a data-plane-only
        reset (line-card reboot): the agent's table survives but packets hit
        an empty data plane until something re-synchronises it.
        """
        self._crashed = True
        self._record_darkness()
        self.crash_epoch += 1
        self.dataplane.wipe()
        self.controlplane.crash_reset(wipe_table=wipe_control_plane)
        self._notify_lifecycle("crash")

    def restore(self) -> None:
        """Bring a crashed switch back up — with whatever (empty) tables it has.

        A no-op on a switch that is not crashed: a stray restore (overlapping
        fault schedules, double restore) must not fire reconnect hooks or
        trigger a resync.  Packets that arrived before this instant stay lost.
        """
        if not self._crashed:
            return
        self._crashed = False
        self._record_darkness()
        self.controlplane.restore()
        self._notify_lifecycle("restore")

    def flap_ports(self, down: bool) -> None:
        """Take every port dark (``down``) or light them again; tables and
        control connection are untouched.  While down, arriving packets are
        lost and the port map is empty: a packet already inside its ingress
        delay is still matched (counted, punted) but leaves on no port.
        """
        if down == (self._flapped_ports is not None):
            return
        if down:
            self._flapped_ports, self._ports = self._ports, {}
        else:
            self._ports, self._flapped_ports = self._flapped_ports, None
        self._record_darkness()

    def _record_darkness(self) -> None:
        dark = self._crashed or self._flapped_ports is not None
        if dark != bool(len(self._dark_log) & 1):
            self._dark_log.append(self.sim.now)

    def on_lifecycle(self, listener: Callable[[str, str], None]) -> None:
        """Register a ``(switch name, event)`` crash/restore observer."""
        self._lifecycle_listeners.append(listener)

    def _notify_lifecycle(self, event: str) -> None:
        for listener in self._lifecycle_listeners:
            listener(self.name, event)

    # -- control plane output ---------------------------------------------------
    def _send_to_controller(self, message: OFMessage) -> None:
        # A crashed switch's connection is down: nothing it was about to say
        # (echo/barrier replies queued behind processing delays) gets out.
        if self._controller_endpoint is None or self._crashed:
            return
        self._controller_endpoint.send(message)

    # -- data plane ----------------------------------------------------------------
    def receive_packet(self, packet: Packet, in_port: int, arrived_at: float) -> None:
        """A link's hand-over: the packet reached ``in_port`` at
        ``arrived_at`` and its ingress delay ends now.

        It is lost if the ports were dark *at* ``arrived_at`` (an edge at that
        very instant has happened), lit again since or not; otherwise it is
        classified and forwarded against the tables and ports as they are now.
        """
        dark = self._dark_log
        if dark and bisect_right(dark, arrived_at) & 1:
            return
        self.packets_received += 1
        packet.trace.append(self.name)
        self._forward(packet, in_port)

    def _forward(self, packet: Packet, in_port: int) -> None:
        if self._crashed:
            return
        packet, output_ports, to_controller, _entry = self.dataplane.process_packet(
            packet, in_port)
        if to_controller:
            self._send_packet_in(packet, in_port)
        for port in output_ports:
            transmit = self._ports.get(port)
            if transmit is None:
                self._transmit(packet, port, in_port)
            else:
                transmit(packet)

    def inject_packet(self, packet: Packet, actions: List[Action], in_port: int) -> None:
        """PacketOut semantics: apply ``actions`` to a copy of ``packet`` and emit it."""
        if self._crashed:
            return
        forwarded = packet.copy()
        for port in apply_actions(forwarded, actions):
            if port == CONTROLLER_PORT:
                self._send_packet_in(forwarded, in_port)
            else:
                self._transmit(forwarded, port, in_port)

    def _send_packet_in(self, packet: Packet, in_port: int) -> None:
        """Capture a copy of ``packet`` now; the PacketIn is built when sent."""
        captured = packet.copy()
        self.controlplane.send_packet_in(
            lambda: PacketIn(
                captured,
                in_port=in_port,
                reason=PacketInReason.ACTION,
                datapath_id=self.datapath_id,
            )
        )

    def _transmit(self, packet: Packet, port: int, in_port: int) -> None:
        """Emit on ``port`` in full generality: FLOOD, or a port that may not
        exist (:meth:`_forward` hands attached ports to their link itself)."""
        if port == FLOOD_PORT:
            for port_no, transmit in self._ports.items():
                if port_no != in_port:
                    transmit(packet.copy())
            return
        transmit = self._ports.get(port)
        if transmit is None:
            # Forwarding to a non-existent port silently drops, as hardware does.
            return
        transmit(packet)

    # -- convenience for tests ---------------------------------------------------------
    def install_rule_directly(self, flowmod: FlowMod) -> None:
        """Apply a rule to both planes immediately, bypassing the control channel.

        Used by tests and by experiment setup phases that pre-install state
        before the measured part of a run begins.
        """
        self.controlplane.table.apply_flowmod(flowmod, now=self.sim.now)
        self.dataplane.apply_flowmod(flowmod, now=self.sim.now)

    def rules_in_dataplane(self) -> int:
        """Number of rules currently visible to packets."""
        return self.dataplane.occupancy()

    def rules_in_controlplane(self) -> int:
        """Number of rules in the control-plane table."""
        return len(self.controlplane.table)

    def planes_agree(self) -> bool:
        """Whether control- and data-plane tables currently hold the same rules."""
        control_only, data_only = self.dataplane.divergence_from(self.controlplane.table)
        return not control_only and not data_only

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<Switch {self.name} profile={self.profile.name} ports={self.port_numbers}>"
