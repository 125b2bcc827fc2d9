"""General probing (Section 3.2.2).

Handles switches that reorder rule modifications across barriers: a cumulative
confirmation (barrier or sequential probe) is then meaningless, so every
modification is confirmed *individually* by a probe packet that exercises the
modified rule itself.

Deployment reserves one header field H (ToS in the prototype); each switch
``i`` receives a value ``S_i`` (vertex colouring keeps the number of values
small) and a probe-catch rule ``H == S_i -> controller``.  To confirm a rule
installed at switch B that forwards to neighbour C, RUM builds a packet that
matches the rule, carries ``H = S_C``, and is injected through any other
neighbour A of B.  The moment the rule is active in B's data plane the probe
is forwarded to C, caught there, and returned to RUM inside a PacketIn.

Probe construction must respect the other rules installed at B
(:mod:`repro.probing.probe_packets`); when no distinguishing probe exists the
technique falls back to the static timeout for that rule, as the paper
prescribes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.core.pending import PendingRule
from repro.core.techniques.base import AckTechnique
from repro.openflow.actions import OutputAction
from repro.openflow.messages import OFMessage, PacketIn, PacketOut
from repro.packet.fields import FIELD_REGISTRY
from repro.packet.packet import Packet, make_probe_packet
from repro.probing.catch_rules import general_catch_flowmod
from repro.probing.coloring import assign_switch_values
from repro.probing.probe_packets import (
    ProbeGenerationError,
    RuleView,
    generate_probe_headers,
    probe_key,
)


@dataclass
class _ProbeInfo:
    """Everything needed to (re-)inject the probe for one pending rule."""

    #: The probe, validated once; every injection sends a stamped copy.
    template: Packet
    catch_switch: str
    inject_switch: str
    inject_port: int
    key: tuple
    probes_sent: int = 0


class GeneralProbingTechnique(AckTechnique):
    """Confirm every modification individually with a data-plane probe."""

    name = "general"

    def __init__(self, layer) -> None:
        super().__init__(layer)
        self.switch_values: Dict[str, int] = {}
        #: ``(probed switch, xid) -> _ProbeInfo``.
        self._probe_info: Dict[Tuple[str, int], _ProbeInfo] = {}
        #: ``(catch switch, probe key) -> (probed switch, xid)``.
        self._probe_registry: Dict[Tuple[str, tuple], Tuple[str, int]] = {}
        self.probes_injected = 0
        self.probes_received = 0
        self.fallbacks = 0

    # -- deployment -------------------------------------------------------------
    def prepare(self) -> None:
        topology = self.layer.topology
        field_spec = FIELD_REGISTRY[self.config.probe_field]
        self.switch_values = assign_switch_values(
            topology.switch_graph(),
            first_value=1,
            max_value=field_spec.max_value,
            unique=self.config.unique_switch_values,
        )
        for switch_name, value in self.switch_values.items():
            self.layer.install_directly(
                switch_name,
                general_catch_flowmod(self.config.probe_field, value),
            )

    def start(self) -> None:
        # The first tick is scheduled from a zero-delay entry, not from here:
        # that entry holds a sequence number, and run digests depend on ties.
        self.sim.schedule_callback(0.0, self._arm_probe_timer)

    def _arm_probe_timer(self) -> None:
        self.sim.schedule_callback(self.config.probe_interval, self._probe_tick)

    # -- FlowMod notifications -----------------------------------------------------
    def on_flowmod_forwarded(self, switch_name: str, record: PendingRule) -> None:
        info = self._build_probe(switch_name, record)
        if info is None:
            self._fallback(switch_name, record)
            return
        self._probe_info[(switch_name, record.xid)] = info
        self._probe_registry[(info.catch_switch, info.key)] = (switch_name, record.xid)

    def _build_probe(self, switch_name: str, record: PendingRule) -> Optional[_ProbeInfo]:
        topology = self.layer.topology
        flowmod = record.flowmod
        if flowmod.is_delete:
            # Deletions are detectable by probes *stopping*; the reproduction
            # keeps the conservative fallback for them instead.
            return None
        output_ports = [action.port for action in flowmod.actions
                        if isinstance(action, OutputAction)]
        if not output_ports:
            return None
        catch_switch = topology.node_for_port(switch_name, output_ports[0])
        if catch_switch is None or not topology.is_switch(catch_switch):
            return None
        neighbors = [name for name in topology.switch_neighbors(switch_name)]
        if not neighbors:
            return None
        inject_candidates = [name for name in neighbors if name != catch_switch]
        inject_switch = inject_candidates[0] if inject_candidates else neighbors[0]

        overrides = {self.config.probe_field: self.switch_values[catch_switch]}
        try:
            headers = generate_probe_headers(
                RuleView.from_flowmod(flowmod),
                self.layer.mirror_table(switch_name),
                overrides,
            )
        except ProbeGenerationError:
            return None
        return _ProbeInfo(
            template=make_probe_packet(headers, probe_id=f"genprobe-{catch_switch}"),
            catch_switch=catch_switch,
            inject_switch=inject_switch,
            inject_port=topology.port_between(inject_switch, switch_name),
            key=probe_key(headers),
        )

    def _fallback(self, switch_name: str, record: PendingRule) -> None:
        self.fallbacks += 1
        self.sim.schedule_callback(
            self.config.fallback_timeout,
            self.layer.confirm_rule,
            switch_name,
            record.xid,
            "fallback",
        )

    # -- probing timer ------------------------------------------------------------------
    def _probe_tick(self) -> None:
        """Re-inject the probes of every switch's oldest pending rules, then
        come back one ``probe_interval`` later."""
        config = self.config
        for switch_name in self.layer.topology.switch_names():
            tracker = self.layer.pending(switch_name)
            if not len(tracker):
                continue
            for record in tracker.oldest(config.probe_window):
                info = self._probe_info.get((switch_name, record.xid))
                if info is not None:
                    self._inject_probe(info)
        self.sim.schedule_callback(config.probe_interval, self._probe_tick)

    def _inject_probe(self, info: _ProbeInfo) -> None:
        packet = info.template.copy()
        packet.created_at = self.sim.now
        packet_out = PacketOut(packet, [OutputAction(info.inject_port)])
        info.probes_sent += 1
        self.probes_injected += 1
        self.layer.send_to_switch(info.inject_switch, packet_out)

    # -- switch messages ------------------------------------------------------------------
    def on_switch_message(self, switch_name: str, message: OFMessage) -> bool:
        if not isinstance(message, PacketIn):
            return False
        probe_value = message.packet.get(self.config.probe_field)
        if probe_value != self.switch_values.get(switch_name):
            return False
        # This PacketIn is a probe caught by switch_name's probe-catch rule.
        self.probes_received += 1
        key = probe_key(message.packet.headers)
        target = self._probe_registry.pop((switch_name, key), None)
        if target is not None:
            probed_switch, xid = target
            self._probe_info.pop((probed_switch, xid), None)
            self.layer.confirm_rule(probed_switch, xid, by="probe")
        return True

    def describe(self) -> str:
        return (
            f"general probing (up to {self.config.probe_window} oldest rules probed "
            f"every {self.config.probe_interval * 1000:.0f} ms, field "
            f"{self.config.probe_field.value})"
        )
