"""The RUM acknowledgment layer.

:class:`RumLayer` is the transparent proxy that sits directly above the
switches.  For every controller FlowMod it forwards, it tracks a pending
record, lets the configured acknowledgment technique decide when the rule is
demonstrably active in the data plane, and only then emits the fine-grained
positive acknowledgment upstream (a repurposed OpenFlow error message with an
otherwise-unused code, exactly like the prototype).  The controller can
therefore never observe an acknowledgment before the corresponding rule
forwards packets — the paper's central guarantee.

Messages that RUM itself originates and that can be answered (its barriers
and probe-rule updates) are tracked by xid so that their replies are
consumed rather than leaked to the controller; its probe PacketOuts get no
reply and are not tracked.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.core.config import RumConfig
from repro.core.pending import PendingRule, PendingRuleTracker
from repro.core.techniques.base import AckTechnique, create_technique
from repro.core.proxy import ProxyLayer
from repro.core.topology_view import TopologyView
from repro.net.network import Network
from repro.obs.events import PHASE_ACK_SENT
from repro.openflow.messages import (
    BarrierReply,
    ErrorMessage,
    FlowMod,
    OFMessage,
    PacketIn,
    PacketOut,
)
from repro.sim.kernel import Simulator


class RumLayer(ProxyLayer):
    """Rule Update Monitoring: reliable fine-grained rule acknowledgments."""

    def __init__(
        self,
        sim: Simulator,
        config: Optional[RumConfig] = None,
        name: str = "rum",
    ) -> None:
        self.config = (config or RumConfig()).validated()
        super().__init__(sim, name=name, latency=self.config.proxy_latency)
        self.network: Optional[Network] = None
        self.topology: Optional[TopologyView] = None
        self._trackers: Dict[str, PendingRuleTracker] = {}
        #: Xids of messages RUM itself injected towards switches whose reply
        #: it must consume; a PacketOut gets none, so it is never recorded.
        self.rum_xids: Set[int] = set()
        #: Deployment-time rules per switch (probe catch rules, ...), kept so
        #: the recovery subsystem can re-seed a switch whose crash wiped them.
        self._deployment_rules: Dict[str, List[FlowMod]] = {}
        #: Measurement log: ``(switch, xid) -> (forwarded, confirmed, how)``,
        #: read into the run's activation ledger.
        self.confirmation_log: Dict[Tuple[str, int], Tuple[float, float, str]] = {}
        self.technique: AckTechnique = create_technique(self.config.technique, self)
        self._prepared = False
        self._started = False

    # -- wiring ----------------------------------------------------------------
    def attach_network(self, network: Network) -> None:
        """Interpose on every switch of ``network`` and learn its topology."""
        self.network = network
        self.topology = TopologyView(network)
        super().attach_network(network)

    def attach_switch(self, switch_name: str, downstream) -> None:
        super().attach_switch(switch_name, downstream)
        self._trackers[switch_name] = PendingRuleTracker(switch_name)

    def prepare(self) -> None:
        """Deployment-time setup of the active technique (probe-catch rules)."""
        if self._prepared:
            return
        if self.topology is None:
            raise RuntimeError("attach_network() must be called before prepare()")
        self._prepared = True
        self.technique.prepare()

    def start(self) -> None:
        """Start the technique's background work (probe timers)."""
        if self._started:
            return
        if not self._prepared:
            self.prepare()
        self._started = True
        self.technique.start()

    def close(self) -> None:
        """Also part the technique from the layer it calls back into."""
        super().close()
        self.technique.layer = None

    # -- accessors used by techniques ---------------------------------------------
    def pending(self, switch_name: str) -> PendingRuleTracker:
        """The pending-rule tracker of one switch."""
        return self._trackers[switch_name]

    def install_directly(self, switch_name: str, flowmod: FlowMod) -> None:
        """Install a deployment-time rule (probe catch / probe rule).

        These rules are part of RUM's setup, not of any measured update, so
        they are written into the switch directly (and shown to the
        technique), the same way experiment setup preinstalls forwarding state.
        """
        if self.network is None:
            raise RuntimeError("attach_network() must be called before install_directly()")
        self.network.switch(switch_name).install_rule_directly(flowmod)
        self.technique.on_rule_written(switch_name, flowmod)
        self._deployment_rules.setdefault(switch_name, []).append(flowmod)

    def reinstall_deployment(self, switch_name: str) -> int:
        """Re-apply the deployment-time rules a crash wiped off a switch.

        Registered as a controller reconnect handler when recovery is armed:
        without its probe-catch rules back, a restored switch's neighbourhood
        can never confirm another rule.  Returns the number of rules
        re-applied (idempotent — re-application replaces identical rules).
        """
        rules = self._deployment_rules.get(switch_name, [])
        for flowmod in rules:
            self.network.switch(switch_name).install_rule_directly(flowmod)
            self.technique.on_rule_written(switch_name, flowmod)
        return len(rules)

    def send_to_switch(self, switch_name: str, message: OFMessage) -> None:
        """Send a RUM-originated message to a switch (reply will be consumed)."""
        if not isinstance(message, PacketOut):
            self.rum_xids.add(message.xid)
        if isinstance(message, FlowMod):
            self.technique.on_rule_written(switch_name, message)
        self.forward_to_switch(switch_name, message)

    # -- confirmations ----------------------------------------------------------------
    def confirm_rule(self, switch_name: str, xid: int, by: str = "") -> Optional[PendingRule]:
        """Confirm a single modification and notify the controller."""
        record = self._trackers[switch_name].confirm(xid, self.sim.now, by=by)
        if record is None:
            return None
        self._emit_confirmation(record)
        return record

    def confirm_up_to(self, switch_name: str, sequence: int, by: str = "") -> List[PendingRule]:
        """Confirm every modification forwarded up to ``sequence`` (cumulative)."""
        records = self._trackers[switch_name].confirm_up_to_sequence(
            sequence, self.sim.now, by=by
        )
        for record in records:
            self._emit_confirmation(record)
        return records

    def _emit_confirmation(self, record: PendingRule) -> None:
        self.confirmation_log[(record.switch, record.xid)] = (
            record.forwarded_at,
            record.confirmed_at,
            record.confirmed_by,
        )
        tr = self.sim.tracer
        if tr is not None:
            tr.rule(PHASE_ACK_SENT, self.sim.now, record.switch, record.xid,
                    detail=record.confirmed_by)
        if self.config.emit_confirmations:
            self.forward_to_controller(
                record.switch, ErrorMessage.rule_confirmation(record.xid)
            )

    # -- message handling ------------------------------------------------------------------
    def handle_from_controller(self, switch_name: str, message: OFMessage) -> None:
        if isinstance(message, FlowMod):
            record = self._trackers[switch_name].add(message, self.sim.now)
            self.forward_to_switch(switch_name, message)
            self.technique.on_flowmod_forwarded(switch_name, record)
            return
        # Everything else (controller barriers, stats requests, PacketOuts,
        # echo) passes through unchanged; RUM stays transparent.
        self.forward_to_switch(switch_name, message)

    def handle_from_switch(self, switch_name: str, message: OFMessage) -> None:
        if self.technique.on_switch_message(switch_name, message):
            # The technique may claim the reply to RUM's own barrier; its xid
            # is released all the same (xids are unique, so this is a no-op
            # for anything else).
            self.rum_xids.discard(message.xid)
            return
        if isinstance(message, (BarrierReply, ErrorMessage)) and message.xid in self.rum_xids:
            # Reply to something RUM injected; never leak it upstream.
            self.rum_xids.discard(message.xid)
            return
        if isinstance(message, PacketIn) and message.packet.is_probe:
            # A probe that the active technique did not claim (e.g. a stale
            # probe from a previous batch); probes never reach the controller.
            return
        self.forward_to_controller(switch_name, message)

    # -- introspection ---------------------------------------------------------------------
    def unconfirmed_count(self) -> int:
        """Total modifications still awaiting confirmation across all switches.

        Sums the per-switch trackers: an introspection query, which no
        simulation path calls.
        """
        return sum(len(tracker) for tracker in self._trackers.values())

    def describe(self) -> str:
        """Human-readable one-liner about the active technique."""
        return f"RUM[{self.technique.describe()}]"
