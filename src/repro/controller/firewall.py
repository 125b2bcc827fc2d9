"""The Figure 2 firewall scenario.

Switch A forwards traffic from host 10.0.0.1 towards switch B (rule X).
Switch B forwards that traffic to switch S3 (rule Y), except HTTP traffic,
which must go through a firewall (rule Z, higher priority).  The update plan
is therefore "X after Y, X after Z": only once both B rules are in place may
A start sending traffic to B.

If switch B acknowledges Y and Z before they are actually in its data plane —
or if Z's installation is delayed by one of the multi-second corner cases the
paper mentions — the controller flips X too early and HTTP traffic reaches
its destination *without* traversing the firewall: a transient security hole.
With RUM's data-plane acknowledgments the flip waits until Z demonstrably
forwards packets, so the hole cannot open (traffic is simply delayed).

The scenario class builds the topology, the update plan, and the violation
metric; :func:`repro.experiments.common.firewall_session` (the engine of the
``fig2`` entry of :data:`repro.experiments.figures.FIGURES`) and the
``firewall_bypass.py`` example wire it to a controller with and without RUM.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.controller.update_plan import UpdatePlan
from repro.net.network import Network
from repro.net.topology import Topology
from repro.net.traffic import FlowSpec
from repro.openflow.actions import OutputAction
from repro.openflow.match import Match
from repro.openflow.messages import FlowMod
from repro.packet.fields import IP_PROTO_TCP
from repro.faults import DataPlaneFault, DataPlaneFaultHarness
from repro.sim.rng import SeededRandom
from repro.switches.profiles import SwitchProfile, hp5406zl_profile


class DelayedHttpRuleFault(DataPlaneFault):
    """Delays the data-plane installation of the HTTP (firewall) rule.

    This reproduces, deterministically, the "hard to predict corner cases
    [where] the delay may reach several seconds" that make static timeouts
    unsafe, applied to the one rule whose late installation opens the
    security hole.  Scenario-specific: it sets no ``name``, so it stays out
    of the fault catalogue and no fault plan can arm it.
    """

    param_defaults = {"delay": 0.8, "http_port": 80}

    def intercept(self, flowmod, apply) -> bool:
        if flowmod.match.value_of("tp_dst") != self.http_port:
            return False
        self.count("rules_delayed")
        self.sim.schedule_callback(self.delay, apply, flowmod, self.sim.now + self.delay)
        return True


@dataclass
class FirewallScenario:
    """Topology, flows, update plan and violation metric for Figure 2."""

    #: Profile of switch B (the one with unreliable acknowledgments).
    hardware_profile: Optional[SwitchProfile] = None
    #: Extra data-plane delay injected on rule Z (0 disables the fault).
    http_rule_delay: float = 0.8
    #: Traffic rate of each of the two flows (packets/second).
    rate_pps: float = 250.0
    host_ip: str = "10.0.0.1"
    server_ip: str = "10.0.0.2"

    def build_topology(self) -> Topology:
        """A - B - S3 chain with the firewall switch (and its host) off B.

        The firewall itself is modelled as a software switch ``FW`` with the
        monitoring host ``FWH`` behind it, so that rule Z (HTTP → firewall)
        forwards to a *switch* and can therefore be confirmed by the general
        probing technique exactly like any other forwarding rule.
        """
        topo = Topology("firewall")
        topo.add_switch("A", kind="software")
        topo.add_switch("B", kind="hardware",
                        profile=self.hardware_profile or hp5406zl_profile())
        topo.add_switch("S3", kind="software")
        topo.add_switch("FW", kind="software")
        topo.add_host("H1", ip=self.host_ip, mac="00:00:00:00:00:01")
        topo.add_host("H2", ip=self.server_ip, mac="00:00:00:00:00:02")
        topo.add_host("FWH", ip="10.0.0.254", mac="00:00:00:00:00:fe")
        topo.add_link("H1", "A")
        topo.add_link("A", "B")
        topo.add_link("B", "S3")
        topo.add_link("B", "FW")
        topo.add_link("FW", "FWH")
        topo.add_link("S3", "H2")
        topo.validate()
        return topo

    def install_fault(self, network: Network) -> Optional[DataPlaneFaultHarness]:
        """Arm the delayed-HTTP-rule fault on switch B (if enabled)."""
        if self.http_rule_delay <= 0:
            return None
        fault = DelayedHttpRuleFault(delay=self.http_rule_delay)
        fault.arm(network.sim, SeededRandom(11).fork("DelayedHttpRuleFault"))
        return DataPlaneFaultHarness(network.switch("B"), [fault])

    def preinstall(self, network: Network) -> None:
        """Static state that exists before the measured update.

        S3 already knows how to reach H2; A and B start with empty tables so
        no traffic from H1 flows anywhere until the update installs X, Y, Z.
        """
        to_h2 = FlowMod(
            Match(ip_dst=self.server_ip),
            [OutputAction(network.port_between("S3", "H2"))],
            priority=100,
        )
        network.switch("S3").install_rule_directly(to_h2)
        # The firewall switch delivers everything it receives to the
        # monitoring host behind it (where inspected traffic terminates).
        to_firewall_host = FlowMod(
            Match(),
            [OutputAction(network.port_between("FW", "FWH"))],
            priority=10,
        )
        network.switch("FW").install_rule_directly(to_firewall_host)

    def flows(self, network: Network) -> List[FlowSpec]:
        """One HTTP flow and one non-HTTP flow from H1 to H2."""
        h1, h2 = network.host("H1"), network.host("H2")
        return [
            FlowSpec(
                flow_id="http",
                source=h1,
                destination=h2,
                ip_src=self.host_ip,
                ip_dst=self.server_ip,
                rate_pps=self.rate_pps,
                ip_proto=IP_PROTO_TCP,
                tp_dst=80,
            ),
            FlowSpec(
                flow_id="bulk",
                source=h1,
                destination=h2,
                ip_src=self.host_ip,
                ip_dst=self.server_ip,
                rate_pps=self.rate_pps,
                ip_proto=IP_PROTO_TCP,
                tp_dst=5001,
            ),
        ]

    def build_plan(self, network: Network) -> UpdatePlan:
        """Rules Y and Z at B, then X at A once both are acknowledged."""
        plan = UpdatePlan(name="firewall-update")
        rule_z = FlowMod(
            Match(ip_src=self.host_ip, ip_proto=IP_PROTO_TCP, tp_dst=80),
            [OutputAction(network.port_between("B", "FW"))],
            priority=300,
        )
        rule_y = FlowMod(
            Match(ip_src=self.host_ip),
            [OutputAction(network.port_between("B", "S3"))],
            priority=200,
        )
        # Z is issued before Y so that even an installation-order switch
        # gives the firewall rule precedence (Section 4 of the paper).
        op_z = plan.add("B", rule_z, label="firewall", role="new-path")
        op_y = plan.add("B", rule_y, label="firewall", role="new-path")
        rule_x = FlowMod(
            Match(ip_src=self.host_ip),
            [OutputAction(network.port_between("A", "B"))],
            priority=200,
        )
        plan.add("A", rule_x, after=[op_y, op_z], label="firewall", role="ingress-flip")
        return plan

    # -- metrics -------------------------------------------------------------
    def violations(self, network: Network) -> Dict[str, int]:
        """Security-policy violations observed by the monitor.

        Every HTTP packet delivered to H2 bypassed the firewall (once the
        update is in effect HTTP must terminate at FW), so the count of such
        deliveries is the violation count.
        """
        monitor = network.monitor
        http_deliveries = monitor.deliveries("http") if "http" in monitor.flows() else []
        bulk_deliveries = monitor.deliveries("bulk") if "bulk" in monitor.flows() else []
        http_at_h2 = sum(1 for record in http_deliveries if record.path and record.path[-1] == "H2")
        http_at_firewall = sum(
            1 for record in http_deliveries if record.path and record.path[-1] == "FWH"
        )
        return {
            "http_packets_bypassing_firewall": http_at_h2,
            "http_packets_at_firewall": http_at_firewall,
            "bulk_packets_delivered": sum(
                1 for record in bulk_deliveries if record.path and record.path[-1] == "H2"
            ),
        }
