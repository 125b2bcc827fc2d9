"""Shared experiment engines: thin adapters over :mod:`repro.session`.

Each ``*_session`` function builds a :class:`~repro.session.spec.SessionSpec`
(run it with ``spec.run()``); ``run_path_migration`` / ``run_rule_install``
build and run in one call.  Each hands the session one workload object with
the scenario protocol of :class:`~repro.scenarios.base.Scenario`, the same
protocol every registered scenario implements.

Three engines cover the whole evaluation:

* :func:`run_path_migration` — the end-to-end experiment of Section 5.1
  (Figures 1b, 6 and 7, and the barrier-layer overhead runs): flows are
  migrated from an old path to a new path with a consistent update, while
  constant-rate traffic measures packet loss and switchover times at the
  destination.  The workload is
  :class:`~repro.scenarios.migration.PathMigrationScenario` with the
  topology and paths of a :class:`MigrationSpec`; the default is the
  paper's triangle (S1-S3 → S1-S2-S3).
* :func:`run_rule_install` — the low-level benchmark of Section 5.2
  (Figure 8 and Table 1): a controller performs R rule modifications on the
  hardware switch with at most K unconfirmed at any time, and the harness
  correlates controller-visible acknowledgment times with data-plane
  activation times.  :class:`RuleInstallParams` is the workload.
* :func:`firewall_session` — the motivation scenario of Figure 2: the
  "X after Y, X after Z" firewall update observed over a fixed window
  (:class:`~repro.controller.firewall.FirewallScenario` is the workload).

Every run returns the unified :class:`~repro.session.record.RunRecord`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from repro.controller.firewall import FirewallScenario
from repro.controller.update_plan import UpdatePlan
from repro.net.network import Network
from repro.net.topology import Topology, triangle_topology
from repro.net.traffic import FlowSpec
from repro.openflow.actions import DropAction, OutputAction
from repro.openflow.match import Match
from repro.openflow.messages import FlowMod
from repro.packet.addresses import ip_to_int
from repro.scenarios.base import Scenario, ScenarioParams
from repro.scenarios.migration import MigrationSpec, PathMigrationScenario
from repro.session.record import RunRecord
from repro.session.spec import (
    ActivationProbe,
    SessionKnobs,
    SessionSpec,
    StackSpec,
)
from repro.switches.profiles import SwitchProfile, hp5406zl_profile

__all__ = [
    "EndToEndParams",
    "MigrationSpec",
    "RuleInstallParams",
    "firewall_session",
    "migration_session",
    "rule_install_session",
    "run_path_migration",
    "run_rule_install",
]

# ---------------------------------------------------------------------------
# End-to-end path migration (Section 5.1)
# ---------------------------------------------------------------------------

@dataclass
class EndToEndParams:
    """Parameters of the end-to-end experiment."""

    flow_count: int = 300
    rate_pps: float = 250.0
    warmup: float = 0.3
    grace: float = 0.4
    max_update_duration: float = 20.0
    seed: int = 7
    max_unconfirmed: Optional[int] = None
    hardware_profile: Optional[SwitchProfile] = None
    rum_overrides: Dict[str, object] = field(default_factory=dict)
    #: Controller barrier frequency when a reliable barrier layer is stacked.
    barrier_every: int = 10
    with_barrier_layer: bool = False
    buffer_after_barrier: bool = False

    @classmethod
    def paper(cls) -> "EndToEndParams":
        """The parameters used in the paper (300 flows at 250 pkt/s)."""
        return cls(flow_count=300, rate_pps=250.0)

    @classmethod
    def quick(cls) -> "EndToEndParams":
        """A reduced-scale configuration for tests and CI benchmarks.

        Fewer flows than the paper's 300, but the same 250 packets/s per flow
        so the 4 ms measurement precision of Figure 1b is preserved.
        """
        return cls(flow_count=60, rate_pps=250.0)

    def scaled(self, **overrides) -> "EndToEndParams":
        """A copy with selected fields replaced."""
        return replace(self, **overrides)


def migration_session(
    technique: str,
    params: Optional[EndToEndParams] = None,
    spec: Optional[MigrationSpec] = None,
) -> SessionSpec:
    """The consistent path-migration experiment as a :class:`SessionSpec`."""
    params = params or EndToEndParams.quick()
    spec = spec or MigrationSpec.triangle(hardware_profile=params.hardware_profile)
    workload = PathMigrationScenario(
        ScenarioParams(flow_count=params.flow_count, rate_pps=params.rate_pps),
        migration=spec)
    new_path_switch = spec.resolved_new_path_switch()

    return SessionSpec(
        kind="path-migration",
        technique=technique,
        workload=workload,
        stack=StackSpec(
            rum_overrides=dict(params.rum_overrides),
            with_barrier_layer=params.with_barrier_layer,
            buffer_after_barrier=params.buffer_after_barrier,
        ),
        knobs=SessionKnobs(
            seed=params.seed,
            warmup=params.warmup,
            grace=params.grace,
            settle=0.05,
            poll_interval=0.1,
            max_update_duration=params.max_update_duration,
            max_unconfirmed=params.max_unconfirmed or max(2 * params.flow_count, 16),
            barrier_every=params.barrier_every,
            rate_pps=params.rate_pps,
        ),
        activation_probe=ActivationProbe(switch=new_path_switch, role="new-path"),
        labels={
            "flow_count": params.flow_count,
            "source_host": spec.source_host,
            "dest_host": spec.dest_host,
            "new_path_switch": new_path_switch,
        },
    )


def run_path_migration(
    technique: str,
    params: Optional[EndToEndParams] = None,
    spec: Optional[MigrationSpec] = None,
) -> RunRecord:
    """Run the consistent path-migration experiment with one technique.

    ``technique`` is any registered technique name (``no-wait`` gives the
    no-consistency lower bound of Figure 7).  ``spec`` selects the topology
    and the old/new paths; the default is the paper's triangle migration.
    """
    return migration_session(technique, params, spec).run()


# ---------------------------------------------------------------------------
# Low-level rule installation benchmark (Section 5.2)
# ---------------------------------------------------------------------------

@dataclass
class RuleInstallParams(Scenario):
    """The single-switch rule-installation benchmark: its parameters and its
    workload (R independent exact-match rules on the target switch, no
    traffic).  An unnamed :class:`Scenario`, so it stays unregistered."""

    rule_count: int = 300
    max_unconfirmed: int = 300
    seed: int = 13
    target_switch: str = "S2"
    hardware_profile: Optional[SwitchProfile] = None
    rum_overrides: Dict[str, object] = field(default_factory=dict)
    #: Preinstall the low-priority drop-all rule the paper's setup starts from.
    with_drop_all: bool = True
    max_duration: float = 120.0

    @classmethod
    def paper_fig8(cls) -> "RuleInstallParams":
        """Figure 8: R = 300, K = 300 (all modifications issued at once)."""
        return cls(rule_count=300, max_unconfirmed=300)

    @classmethod
    def paper_table1(cls) -> "RuleInstallParams":
        """Table 1: R = 4000 modifications."""
        return cls(rule_count=4000, max_unconfirmed=100)

    @classmethod
    def quick(cls, rule_count: int = 150, max_unconfirmed: int = 150) -> "RuleInstallParams":
        """Reduced-scale configuration for tests and CI benchmarks."""
        return cls(rule_count=rule_count, max_unconfirmed=max_unconfirmed)

    def scaled(self, **overrides) -> "RuleInstallParams":
        """A copy with selected fields replaced."""
        return replace(self, **overrides)

    # -- the workload protocol ----------------------------------------------
    def build_topology(self) -> Topology:
        return triangle_topology(
            hardware_profile=self.hardware_profile or hp5406zl_profile())

    def flows(self, network: Network) -> List[FlowSpec]:
        return []

    def preinstall(self, network: Network, flows: List[FlowSpec]) -> None:
        if self.with_drop_all:
            network.switch(self.target_switch).install_rule_directly(
                FlowMod(Match(), [DropAction()], priority=1)
            )

    def build_plan(self, network: Network, flows: List[FlowSpec]) -> UpdatePlan:
        plan = UpdatePlan(name="rule-install")
        target = self.target_switch
        out_port = network.port_between(target, "S3")
        src_base = ip_to_int("10.1.0.0")
        dst_base = ip_to_int("10.2.0.0")
        for index in range(self.rule_count):
            match = Match(ip_src=src_base + index + 1, ip_dst=dst_base + index + 1)
            flowmod = FlowMod(match, [OutputAction(out_port)], priority=100)
            plan.add(target, flowmod, label=f"rule-{index:05d}", role="install")
        return plan


def rule_install_session(
    technique: str,
    params: Optional[RuleInstallParams] = None,
) -> SessionSpec:
    """The Section 5.2 rule-installation benchmark as a :class:`SessionSpec`."""
    params = params or RuleInstallParams.paper_fig8()
    return SessionSpec(
        kind="rule-install",
        technique=technique,
        workload=params,
        stack=StackSpec(rum_overrides=dict(params.rum_overrides)),
        knobs=SessionKnobs(
            seed=params.seed,
            warmup=0.0,
            settle=0.1,
            poll_interval=0.25,
            max_update_duration=params.max_duration,
            max_unconfirmed=params.max_unconfirmed,
        ),
        activation_probe=ActivationProbe(switch=params.target_switch),
        labels={
            "rule_count": params.rule_count,
            "target_switch": params.target_switch,
            "window": params.max_unconfirmed,
        },
    )


def run_rule_install(technique: str, params: Optional[RuleInstallParams] = None) -> RunRecord:
    """Run the Section 5.2 rule-installation benchmark with one technique."""
    return rule_install_session(technique, params).run()


# ---------------------------------------------------------------------------
# Transient firewall bypass (Figure 2)
# ---------------------------------------------------------------------------

def firewall_session(technique: str, duration: float = 3.0, seed: int = 31) -> SessionSpec:
    """The Figure 2 firewall update as a :class:`SessionSpec`.

    The scenario is measured over a fixed observation window — violations
    are counted at ``duration`` whether or not the plan finished — so the
    session uses :attr:`SessionKnobs.run_for` instead of completion polling;
    the counts are the record's ``metrics``
    (see :meth:`~repro.controller.firewall.FirewallScenario.metrics`).
    """
    return SessionSpec(
        kind="firewall-bypass",
        technique=technique,
        workload=FirewallScenario(),
        knobs=SessionKnobs(
            seed=seed,
            warmup=0.1,
            run_for=duration - 0.1,
            grace=0.0,
            settle=0.0,
            max_unconfirmed=10,
        ),
        labels={"duration": duration},
    )
