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
from repro.core.techniques.base import FALLBACK_TIMEOUT, AckTechnique, Parameter
from repro.openflow.actions import OutputAction
from repro.openflow.flowtable import FlowTable
from repro.openflow.messages import FlowMod, OFMessage, PacketIn, PacketOut
from repro.packet.fields import FIELD_REGISTRY, HeaderField
from repro.packet.packet import Packet, make_probe_packet
from repro.probing.catch_rules import general_catch_flowmod
from repro.probing.coloring import assign_switch_values
from repro.probing.probe_packets import (
    ProbeGenerationError,
    RuleView,
    generate_probe_headers,
    probe_key,
)

#: The reserved header field H: the prototype (Section 4) probes with the IP
#: ToS field, which live traffic leaves at 0, so switch values start at 1.
PROBE_FIELD = HeaderField.IP_TOS


@dataclass
class _ProbeInfo:
    """Everything needed to (re-)inject the probe for one pending rule."""

    #: The probe, validated once, and its PacketOut actions, built once: both
    #: go to every injection's PacketOut as they are (the injecting switch's
    #: copy of the probe is the only one).
    template: Packet
    actions: Tuple[OutputAction]
    catch_switch: str
    inject_switch: str
    key: tuple


class GeneralProbingTechnique(AckTechnique):
    """Confirm every modification individually with a data-plane probe."""

    name = "general"
    #: Probe at most this many oldest unconfirmed rules per switch and round
    #: (the paper uses 30).
    probe_window = Parameter(30)
    #: Seconds between probing rounds (the paper uses 10 ms).
    probe_interval = Parameter(0.01)

    def __init__(self, layer, overrides=None) -> None:
        super().__init__(layer, overrides)
        self.switch_values: Dict[str, int] = {}
        #: ``(probed switch, xid) -> _ProbeInfo``.
        self._probe_info: Dict[Tuple[str, int], _ProbeInfo] = {}
        #: ``(catch switch, probe key) -> (probed switch, xid)``.
        self._probe_registry: Dict[Tuple[str, tuple], Tuple[str, int]] = {}
        #: RUM's mirror of each switch's rules, built from every rule RUM
        #: forwards or writes there: probe generation's overlapping-rule checks
        #: read it, and nothing else does, so no other technique keeps one.
        self.mirrors: Dict[str, FlowTable] = {}
        self.probes_injected = 0

    # -- deployment -------------------------------------------------------------
    def prepare(self) -> None:
        topology = self.layer.topology
        self.mirrors = {name: FlowTable(name=f"rum-mirror-{name}")
                        for name in topology.switch_names()}
        self.switch_values = assign_switch_values(
            topology.switch_graph(),
            first_value=1,
            max_value=FIELD_REGISTRY[PROBE_FIELD].max_value,
        )
        for switch_name, value in self.switch_values.items():
            self.layer.install_directly(
                switch_name,
                general_catch_flowmod(PROBE_FIELD, value),
            )

    def start(self) -> None:
        # The first tick is scheduled from a zero-delay entry, not from here:
        # that entry holds a sequence number, and run digests depend on ties.
        self.sim.schedule_callback(0.0, self._arm_probe_timer)

    def _arm_probe_timer(self) -> None:
        self.sim.schedule_callback(self.probe_interval, self._probe_tick)

    # -- FlowMod notifications -----------------------------------------------------
    def on_rule_written(self, switch_name: str, flowmod: FlowMod) -> None:
        self.mirrors[switch_name].apply_flowmod(flowmod, now=self.sim.now)

    def on_flowmod_forwarded(self, switch_name: str, record: PendingRule) -> None:
        self.mirrors[switch_name].apply_flowmod(record.flowmod, now=self.sim.now)
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
            # A probe for a deleted rule would be caught where the next-lower
            # matching rule sends it: positive evidence, not silence.  No run
            # issues a DELETE, so the conservative fallback answers instead.
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

        overrides = {PROBE_FIELD: self.switch_values[catch_switch]}
        try:
            headers = generate_probe_headers(
                RuleView.from_flowmod(flowmod),
                self.mirrors[switch_name],
                overrides,
            )
        except ProbeGenerationError:
            return None
        template = make_probe_packet(headers, probe_id=f"genprobe-{catch_switch}")
        return _ProbeInfo(
            template=template,
            actions=(OutputAction(topology.port_between(inject_switch, switch_name)),),
            catch_switch=catch_switch,
            inject_switch=inject_switch,
            key=probe_key(template._values),
        )

    def _fallback(self, switch_name: str, record: PendingRule) -> None:
        self.sim.schedule_callback(
            FALLBACK_TIMEOUT,
            self.layer.confirm_rule,
            switch_name,
            record.xid,
            "fallback",
        )

    # -- probing timer ------------------------------------------------------------------
    def _probe_tick(self) -> None:
        """Re-inject the probes of every switch's oldest pending rules, then
        come back one ``probe_interval`` later."""
        layer, window, probe_info = self.layer, self.probe_window, self._probe_info
        for switch_name in layer.topology.switch_names():
            # Injecting only schedules a delivery: nothing is confirmed mid-walk.
            for record in layer.pending(switch_name).oldest(window):
                info = probe_info.get((switch_name, record.xid))
                if info is not None:
                    self._inject_probe(info)
        self.sim.schedule_callback(self.probe_interval, self._probe_tick)

    def _inject_probe(self, info: _ProbeInfo) -> None:
        self.probes_injected += 1
        self.layer.send_to_switch(info.inject_switch, PacketOut(info.template, info.actions))

    # -- switch messages ------------------------------------------------------------------
    def on_switch_message(self, switch_name: str, message: OFMessage) -> bool:
        if not isinstance(message, PacketIn):
            return False
        probe_value = message.packet.get(PROBE_FIELD)
        if probe_value != self.switch_values.get(switch_name):
            return False
        # This PacketIn is a probe caught by switch_name's probe-catch rule.
        key = probe_key(message.packet._values)
        target = self._probe_registry.pop((switch_name, key), None)
        if target is not None:
            probed_switch, xid = target
            self._probe_info.pop((probed_switch, xid), None)
            self.layer.confirm_rule(probed_switch, xid, by="probe")
        return True

    def describe(self) -> str:
        return (
            f"general probing (up to {self.probe_window} oldest rules probed "
            f"every {self.probe_interval * 1000:.0f} ms, field "
            f"{PROBE_FIELD.value})"
        )
