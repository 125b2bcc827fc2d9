"""The scenario protocol and the string-keyed scenario registry.

A *scenario* packages one network-update workload: it builds a topology,
installs the forwarding state that exists before the measured update,
produces the flows that traffic the network and the
:class:`~repro.controller.update_plan.UpdatePlan` the controller executes,
and finally extracts per-scenario metrics (policy violations, packets on a
drained link, ...) from the finished run.  The protocol is the only way a
:class:`~repro.session.spec.SessionSpec` gets its workload: the paper's own
experiments (:mod:`repro.experiments.common`) hand the session objects with
the same methods and flags, registered or not.  The generic engine in
:mod:`repro.scenarios.engine` runs any registered scenario against any
acknowledgment technique, which is what lets the campaign runner sweep
(scenario × technique × scale × seed) grids over generated topologies.

Adding a scenario is defining a :class:`Scenario` subclass with a ``name``:
the class is then in :data:`SCENARIOS` and available to the campaign CLI by
name — workloads are data, not code forks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional

from repro.controller.update_plan import UpdatePlan
from repro.net.network import Network
from repro.net.topology import Topology
from repro.net.traffic import FlowSpec
from repro.registry import Registry
from repro.scenarios.generators import (
    DEFAULT_HARDWARE_FRACTION,
    build_topology_cached,
)


@dataclass
class ScenarioParams:
    """Knobs shared by every scenario."""

    #: Topology family (see :func:`repro.scenarios.generators.build_topology`);
    #: ``"auto"`` lets the scenario pick its preferred family.
    topology: str = "auto"
    #: Integer size knob interpreted by the topology family.
    scale: int = 1
    flow_count: int = 8
    rate_pps: float = 250.0
    seed: int = 7
    #: Fraction of generated switches using the buggy hardware profile.
    hardware_fraction: float = DEFAULT_HARDWARE_FRACTION
    #: Seconds of traffic before the update starts.
    warmup: float = 0.2
    #: Seconds of traffic kept running after the update finishes.
    grace: float = 0.3
    #: Stop waiting for the update after this many simulated seconds; a plan
    #: that has not finished by then is reported as not completed.
    max_update_duration: float = 15.0
    #: Bound K on unconfirmed modifications (``None``: 2 * flow_count, >= 16).
    max_unconfirmed: Optional[int] = None
    #: Fault plan in its compact string form (see
    #: :meth:`repro.faults.FaultPlan.from_string`); ``None``/``"none"`` runs
    #: fault-free.  A string — not a :class:`~repro.faults.plan.FaultPlan` —
    #: so campaign configs stay hashable and JSON-able.
    faults: Optional[str] = None
    #: Recovery policy in its compact string form (see
    #: :meth:`repro.recovery.RecoveryPolicy.from_string`, e.g. ``"on"`` or
    #: ``"on(max_attempts=6)"``); ``None``/``"off"`` runs without recovery —
    #: the byte-identical pre-recovery path.  A string for the same reason
    #: :attr:`faults` is one.
    recovery: Optional[str] = None
    #: Arm rule-lifecycle tracing (see :mod:`repro.obs`); the run's record
    #: then carries a :class:`~repro.obs.events.TraceLog`.
    trace: bool = False

    def scaled(self, **overrides) -> "ScenarioParams":
        """A copy with selected fields replaced."""
        return replace(self, **overrides)


class Scenario:
    """Base class for scenarios; subclasses override the protocol methods.

    The session engine (:func:`~repro.session.engine.run_session`) calls the
    methods in this order, and starts traffic only when there are flows::

        topology = scenario.build_topology()
        network  = Network(sim, topology, ...)
        flows    = scenario.flows(network)
        scenario.preinstall(network, flows)
        plan     = scenario.build_plan(network, flows)
        ...run...
        markers  = scenario.new_path_switches(network, flows)
        metrics  = scenario.metrics(network, plan, executor)
    """

    #: Registry key; a subclass whose own body sets it is registered.
    name: str = ""
    #: One-line human description shown by ``python -m repro list``.
    description: str = ""
    #: Topology family used when ``params.topology`` is ``"auto"``.
    default_topology: str = "leaf-spine"

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if "name" in cls.__dict__:
            SCENARIOS.add(cls.name, cls)

    def __init__(self, params: Optional[ScenarioParams] = None) -> None:
        self.params = params or ScenarioParams()

    # -- protocol ------------------------------------------------------------
    def build_topology(self) -> Topology:
        """The network the scenario runs on (default: the declared family).

        Generation is memoized per process: campaign workers sweeping
        (technique × seed) grids over the same topology parameters reuse
        one generated — read-only — :class:`Topology`.
        """
        family = self.params.topology
        if family == "auto":
            family = self.default_topology
        return build_topology_cached(
            family,
            scale=self.params.scale,
            seed=self.params.seed,
            hardware_fraction=self.params.hardware_fraction,
        )

    def flows(self, network: Network) -> List[FlowSpec]:
        """The application flows that traffic the network during the update."""
        raise NotImplementedError

    def preinstall(self, network: Network, flows: List[FlowSpec]) -> None:
        """Install the forwarding state that predates the measured update."""

    def build_plan(self, network: Network, flows: List[FlowSpec]) -> UpdatePlan:
        """The dependency-ordered update the controller executes."""
        raise NotImplementedError

    def new_path_switches(self, network: Network,
                          flows: List[FlowSpec]) -> Dict[str, str]:
        """Per-flow switch whose traversal marks "this flow reached the new path".

        Flows absent from the mapping are excluded from update-time
        statistics (they are not migrating).  The default — no flow tracked —
        suits scenarios measured purely through :meth:`metrics`.
        """
        return {}

    def metrics(self, network: Network, plan: UpdatePlan,
                executor) -> Dict[str, object]:
        """Scenario-specific result numbers (JSON-able values only)."""
        return {}

    def fault_plan(self):
        """The :class:`~repro.faults.plan.FaultPlan` this run arms.

        Default: parse :attr:`ScenarioParams.faults` (``None`` — the
        fault-free path — when unset).  Scenarios built around faults
        (``fault-sweep``) override this to supply a default mix.
        """
        from repro.faults.plan import FaultPlan

        if self.params.faults:
            return FaultPlan.from_string(self.params.faults)
        return None

    def recovery_policy(self):
        """The :class:`~repro.recovery.RecoveryPolicy` this run arms.

        Default: parse :attr:`ScenarioParams.recovery`; any "off" spelling
        (or an unset knob) parses to ``None``, the byte-identical
        pre-recovery path.  Recovery-centric scenarios (``rolling-upgrade``)
        override this to default recovery on.
        """
        from repro.recovery.policy import RecoveryPolicy

        return RecoveryPolicy.from_string(self.params.recovery)


#: The registry: scenario name -> scenario class.
SCENARIOS = Registry("scenario")


def available_scenarios() -> List[str]:
    """Registered scenario names, sorted."""
    return SCENARIOS.names()


def get_scenario(name: str, params: Optional[ScenarioParams] = None) -> Scenario:
    """Instantiate a registered scenario by name."""
    return SCENARIOS[name](params)
