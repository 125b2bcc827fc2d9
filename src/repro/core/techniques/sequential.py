"""Sequential probing (Section 3.2.1).

Assumes the switch never reorders modifications across barriers (it may still
answer barriers too early).  RUM then only needs evidence that the *latest*
modification of a batch reached the data plane to confirm the whole batch:

1. at deployment time every switch gets a probe-catch rule
   (``H1 == postprobe -> controller``) and the probed switch gets one
   versioned probe rule (``H1 == preprobe -> set H1=postprobe, set
   H2=version, forward to neighbour C``);
2. after every ``probe_batch`` real modifications RUM rewrites the probe
   rule's version (a single FlowMod — the only extra switch work);
3. RUM keeps injecting pre-probe packets through a neighbour A; when a
   post-probe carrying version ``v`` comes back from C, every batch up to the
   one that wrote ``v`` — and therefore every real modification preceding it —
   is known to be in the data plane.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.core.pending import PendingRule
from repro.core.techniques.base import FALLBACK_TIMEOUT, AckTechnique, Parameter
from repro.core.versioning import VersionAllocator, VersionSpaceExhausted
from repro.openflow.actions import OutputAction
from repro.openflow.messages import OFMessage, PacketIn, PacketOut
from repro.packet.fields import FIELD_REGISTRY, ETH_TYPE_IP, HeaderField
from repro.packet.packet import Packet, make_probe_packet
from repro.probing.catch_rules import (
    sequential_catch_flowmod,
    sequential_probe_rule_flowmod,
)

#: The prototype's reserved fields (Section 4): H1 is the VLAN id, whose
#: reserved values 4000 and 4001 mark pre- and post-probe packets, and H2,
#: the probe rule's version, is the IP ToS field.
H1_FIELD = HeaderField.VLAN_ID
H2_FIELD = HeaderField.IP_TOS
PREPROBE_VALUE = 4000
POSTPROBE_VALUE = 4001


@dataclass
class _SwitchProbeState:
    """Per-switch sequential probing state."""

    probeable: bool
    catch_neighbor: str = ""
    inject_neighbor: str = ""
    probe_out_port: int = 0
    #: The pre-probe, validated once, and its PacketOut actions, built once:
    #: both go to every injection's PacketOut as they are (the injecting
    #: switch's copy of the probe is the only one).
    template: Optional[Packet] = None
    actions: Tuple[OutputAction, ...] = ()
    allocator: Optional[VersionAllocator] = None
    #: logical batch -> (highest covered pending-rule sequence, the xid and the
    #: wire version of the probe-rule update that opened it).
    outstanding: Dict[int, Tuple[int, int, int]] = field(default_factory=dict)
    since_last_probe_rule: int = 0
    highest_covered_sequence: int = 0


class SequentialProbingTechnique(AckTechnique):
    """Confirm batches of modifications with a versioned probe rule."""

    name = "sequential"
    #: Rewrite the probe rule after this many real modifications (N of
    #: Table 1; the end-to-end experiment uses 10).
    probe_batch = Parameter(10)
    #: Seconds between pre-probe injections.
    probe_interval = Parameter(0.01)

    def __init__(self, layer, overrides=None) -> None:
        super().__init__(layer, overrides)
        self._states: Dict[str, _SwitchProbeState] = {}
        #: ``(catch switch, wire version) -> (probed switch, logical batch)``.
        self._version_map: Dict[Tuple[str, int], Tuple[str, int]] = {}
        self.probe_rule_updates_sent = 0
        self.probes_injected = 0

    # -- deployment -------------------------------------------------------------
    def prepare(self) -> None:
        topology = self.layer.topology
        switches = topology.switch_names()
        h2_max = FIELD_REGISTRY[H2_FIELD].max_value

        # Install the probe-catch rule everywhere first, so it exists before
        # any probe rule can start rewriting packets into post-probes.
        for switch_name in switches:
            self.layer.install_directly(
                switch_name,
                sequential_catch_flowmod(H1_FIELD, POSTPROBE_VALUE),
            )

        for index, switch_name in enumerate(switches):
            neighbors = topology.switch_neighbors(switch_name)
            if not neighbors:
                self._states[switch_name] = _SwitchProbeState(probeable=False)
                continue
            catch_neighbor = neighbors[0]
            inject_neighbor = neighbors[1] if len(neighbors) > 1 else neighbors[0]
            # Partition the H2 value space so two switches never share a wire
            # version; value 0 is reserved for "no version yet".
            usable = [value for value in range(1, h2_max + 1)
                      if value % len(switches) == index]
            state = _SwitchProbeState(
                probeable=True,
                catch_neighbor=catch_neighbor,
                inject_neighbor=inject_neighbor,
                probe_out_port=topology.port_between(switch_name, catch_neighbor),
                actions=(OutputAction(topology.port_between(inject_neighbor, switch_name)),),
                template=make_probe_packet({
                    HeaderField.ETH_SRC: 0x00000000A0A0,
                    HeaderField.ETH_DST: 0x00000000B0B0,
                    HeaderField.ETH_TYPE: ETH_TYPE_IP,
                    H1_FIELD: PREPROBE_VALUE,
                    H2_FIELD: 0,
                }, probe_id=f"seqprobe-{switch_name}"),
                allocator=VersionAllocator(h2_max, reserved=(0,), usable_values=usable),
            )
            self._states[switch_name] = state
            self.layer.install_directly(
                switch_name,
                sequential_probe_rule_flowmod(
                    H1_FIELD, PREPROBE_VALUE, POSTPROBE_VALUE, H2_FIELD, 0,
                    state.probe_out_port,
                ),
            )

    def start(self) -> None:
        # The first tick is scheduled from a zero-delay entry, not from here:
        # that entry holds a sequence number, and run digests depend on ties.
        self.sim.schedule_callback(0.0, self._arm_probe_timer)

    def _arm_probe_timer(self) -> None:
        self.sim.schedule_callback(self.probe_interval, self._probe_tick)

    # -- FlowMod notifications -----------------------------------------------------
    def on_flowmod_forwarded(self, switch_name: str, record: PendingRule) -> None:
        state = self._states.get(switch_name)
        if state is None or not state.probeable:
            # A switch with no neighbours cannot be probed; fall back to the
            # conservative static timeout.
            self.sim.schedule_callback(
                FALLBACK_TIMEOUT,
                self.layer.confirm_rule,
                switch_name,
                record.xid,
                "fallback",
            )
            return
        state.since_last_probe_rule += 1
        if state.since_last_probe_rule >= self.probe_batch:
            self._issue_probe_rule_update(switch_name, record.sequence)
        else:
            self.sim.schedule_callback(
                self.probe_interval * 5,
                self._cover_stalled_batch,
                switch_name,
            )

    def _cover_stalled_batch(self, switch_name: str) -> None:
        """Cover a partially filled batch that stopped growing."""
        state = self._states[switch_name]
        if state.since_last_probe_rule == 0:
            return
        newest = self.layer.pending(switch_name).newest_sequence()
        if newest is not None and newest > state.highest_covered_sequence:
            self._issue_probe_rule_update(switch_name, newest)

    def _issue_probe_rule_update(self, switch_name: str, covered_sequence: int) -> None:
        state = self._states[switch_name]
        try:
            batch, wire_version = state.allocator.allocate()
        except VersionSpaceExhausted:
            # All wire values are tied up in unconfirmed batches; retry after
            # one probing interval (older batches will have resolved by then).
            self.sim.schedule_callback(
                self.probe_interval, self._issue_probe_rule_update,
                switch_name, covered_sequence,
            )
            return
        state.highest_covered_sequence = max(state.highest_covered_sequence, covered_sequence)
        state.since_last_probe_rule = 0
        self._version_map[(state.catch_neighbor, wire_version)] = (switch_name, batch)
        flowmod = sequential_probe_rule_flowmod(
            H1_FIELD, PREPROBE_VALUE, POSTPROBE_VALUE, H2_FIELD, wire_version,
            state.probe_out_port,
        )
        state.outstanding[batch] = (covered_sequence, flowmod.xid, wire_version)
        self.probe_rule_updates_sent += 1
        self.layer.send_to_switch(switch_name, flowmod)

    # -- probing timer ------------------------------------------------------------------
    def _probe_tick(self) -> None:
        """Inject a pre-probe at every switch with an outstanding batch, then
        come back one ``probe_interval`` later."""
        for state in self._states.values():
            if not state.probeable or not state.outstanding:
                continue
            self._inject_probe(state)
        self.sim.schedule_callback(self.probe_interval, self._probe_tick)

    def _inject_probe(self, state: _SwitchProbeState) -> None:
        self.probes_injected += 1
        self.layer.send_to_switch(state.inject_neighbor, PacketOut(state.template, state.actions))

    # -- switch messages ------------------------------------------------------------------
    def on_switch_message(self, switch_name: str, message: OFMessage) -> bool:
        if not isinstance(message, PacketIn):
            return False
        h1_value = message.packet.get(H1_FIELD)
        if h1_value == PREPROBE_VALUE:
            # A pre-probe reached the controller without being rewritten
            # (probe rule not yet installed anywhere useful); swallow it.
            return True
        if h1_value != POSTPROBE_VALUE:
            return False
        wire_version = message.packet.get(H2_FIELD)
        target = self._version_map.get((switch_name, wire_version))
        if target is None:
            return True
        probed_switch, batch = target
        state = self._states[probed_switch]
        state.allocator.mark_observed(wire_version)
        released = state.allocator.release_through(batch)
        for released_batch in released:
            covered, update_xid, wire = state.outstanding.pop(released_batch)
            # The allocator reuses no outstanding batch's wire value: the key is its own.
            del self._version_map[state.catch_neighbor, wire]
            # Its probe came back, so the update applied: no reply will release its xid.
            self.layer.rum_xids.discard(update_xid)
            self.layer.confirm_up_to(probed_switch, covered, by="probe")
        return True

    def describe(self) -> str:
        return (
            f"sequential probing (probe rule update after {self.probe_batch} "
            f"modifications, probes every {self.probe_interval * 1000:.0f} ms)"
        )
