"""The typed experiment-session specification.

A :class:`SessionSpec` is the one declarative description of "run this
update workload against this topology with this acknowledgment technique and
measure it": topology provider + :class:`Workload` + plan builder +
technique + :class:`StackSpec`/:class:`SessionKnobs`.  ``SessionSpec.run()``
executes it through the single engine in :mod:`repro.session.engine` and
returns a :class:`~repro.session.record.RunRecord`.

The historical entry points — ``run_path_migration``, ``run_rule_install``,
``repro.scenarios.engine.run_scenario`` and the campaign runner — are thin
adapters that build one of these specs, so a new technique or workload
registered once is immediately runnable from every path.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Type, Union

from repro.controller.update_plan import UpdatePlan
from repro.core.techniques.base import AckTechnique
from repro.core.techniques.registry import resolve_technique
from repro.faults.plan import FaultPlan
from repro.net.network import Network
from repro.recovery.policy import RecoveryPolicy
from repro.net.topology import Topology
from repro.net.traffic import FlowSpec
from repro.sim.kernel import Observer

#: Builds the topology the session runs on.
TopologyProvider = Callable[[], Topology]
#: Produces the application flows given the built network.
FlowProvider = Callable[[Network], List[FlowSpec]]
#: Installs pre-update forwarding state.
Preinstaller = Callable[[Network, List[FlowSpec]], None]
#: Builds the dependency-ordered update the controller executes.
PlanBuilder = Callable[[Network, List[FlowSpec]], UpdatePlan]
#: Returns what marks a delivery as "new path": one switch name for all
#: flows, a per-flow mapping, or ``None``/empty to skip flow statistics.
MarkerProvider = Callable[[Network, List[FlowSpec]], Union[str, Mapping[str, str], None]]
#: Extracts workload-specific metrics from the finished run.
MetricsHook = Callable[[Network, UpdatePlan, object], Dict[str, object]]


@dataclass
class Workload:
    """The traffic and pre-update state side of a session."""

    flows: FlowProvider
    preinstall: Optional[Preinstaller] = None
    #: Whether a constant-rate traffic generator drives the flows (the
    #: rule-install benchmark runs without data-plane traffic).
    traffic: bool = True
    markers: Optional[MarkerProvider] = None
    #: Count dropped packets network-wide (scenario engine behaviour) instead
    #: of over the tracked flows only (path-migration behaviour).
    dropped_from_monitor: bool = False


@dataclass
class StackSpec:
    """How the control stack above the switches is assembled."""

    rum_overrides: Dict[str, object] = field(default_factory=dict)
    with_barrier_layer: bool = False
    buffer_after_barrier: bool = False


@dataclass
class SessionKnobs:
    """Timing and windowing knobs shared by every session kind."""

    seed: int = 7
    #: Seconds of simulation (traffic warm-up) before the update starts.
    warmup: float = 0.0
    #: Seconds of traffic kept running after the update finishes.
    grace: float = 0.0
    #: Trailing simulation time after traffic stops (or, for traffic-less
    #: sessions, after the update loop ends) so in-flight events settle.
    settle: float = 0.05
    #: Granularity of the executor-completion polling loop.
    poll_interval: float = 0.1
    #: Stop waiting for the update after this many simulated seconds.
    max_update_duration: float = 15.0
    #: When set, run for exactly this many simulated seconds after the update
    #: starts instead of polling for plan completion — for workloads measured
    #: over a fixed observation window (the Figure 2 firewall bypass).
    run_for: Optional[float] = None
    #: Bound K on unconfirmed modifications.
    max_unconfirmed: int = 16
    #: Controller barrier frequency when a reliable barrier layer is stacked.
    barrier_every: int = 10
    #: Nominal per-flow packet rate (sets the expected inter-packet gap used
    #: to turn delivery gaps into broken time).
    rate_pps: float = 250.0
    #: Controller-side recovery policy (retransmits + crash resync); ``None``
    #: keeps the pre-recovery code paths byte-identical.  See
    #: :mod:`repro.recovery`.
    recovery: Optional["RecoveryPolicy"] = None


@dataclass
class ActivationProbe:
    """Which ledger rows the record's Figure 8 ``activation`` projects onto."""

    switch: str
    #: Restrict to plan operations with this role (``None``: every operation
    #: on :attr:`switch`).
    role: Optional[str] = None


@dataclass
class SessionSpec:
    """One declarative experiment session; run it with :meth:`run`."""

    technique: Union[str, Type[AckTechnique]]
    topology: TopologyProvider
    workload: Workload
    plan_builder: PlanBuilder
    stack: StackSpec = field(default_factory=StackSpec)
    knobs: SessionKnobs = field(default_factory=SessionKnobs)
    #: Faults armed against the network for this run (``None`` or an empty
    #: plan: the byte-identical fault-free path).  See :mod:`repro.faults`.
    faults: Optional[FaultPlan] = None
    activation_probe: Optional[ActivationProbe] = None
    metrics: Optional[MetricsHook] = None
    #: Arm rule-lifecycle tracing for this run: the engine hangs a
    #: collecting tracer on the simulator and the record carries the resulting
    #: :class:`~repro.obs.events.TraceLog`.  Tracing only observes — traced
    #: and untraced runs of the same spec produce identical digests.
    trace: bool = False
    #: Session kind recorded on the result (``"path-migration"``, ...).
    kind: str = "session"
    #: Extra labels merged into the record (``scenario``, ``scale``, ...).
    labels: Dict[str, object] = field(default_factory=dict)

    def resolved_technique(self) -> Type[AckTechnique]:
        """The technique class :attr:`technique` names."""
        return resolve_technique(self.technique)

    def config(self) -> Dict[str, object]:
        """Canonical JSON-able encoding of the spec (record provenance).

        Callables (topology/workload/plan builders) are code, not data, so
        the encoding carries the declarative parts: kind, technique, labels,
        stack and knobs.  Adapters put their own reconstruction parameters
        into :attr:`labels`.
        """
        config: Dict[str, object] = {
            "kind": self.kind,
            "technique": self.resolved_technique().name,
            "labels": dict(self.labels),
            "stack": {
                "rum_overrides": {key: _jsonable(value)
                                  for key, value in self.stack.rum_overrides.items()},
                "with_barrier_layer": self.stack.with_barrier_layer,
                "buffer_after_barrier": self.stack.buffer_after_barrier,
            },
            "knobs": self._knobs_config(),
            # An empty plan normalises to None: both mean the fault-free path.
            # The key predates only-when-armed encoding; persisted configs
            # carry it, so it stays.
            "faults": (self.faults.as_dict()
                       if self.faults is not None and not self.faults.empty()
                       else None),
        }
        # Key present only when armed, so trace-off configs stay byte-identical
        # to configs produced before tracing existed (same pattern as faults).
        if self.trace:
            config["trace"] = True
        return config

    def _knobs_config(self) -> Dict[str, object]:
        """JSON form of the knobs; ``recovery`` exists only when armed.

        An absent recovery policy and a disabled one are both "no recovery":
        omitting the key keeps knob encodings byte-identical to configs
        produced before that subsystem existed.
        """
        knobs = asdict(self.knobs)
        if knobs.get("recovery") is None:
            knobs.pop("recovery", None)
        return knobs

    def run(self, observer: Optional[Observer] = None):
        """Execute the session; returns a :class:`~repro.session.record.RunRecord`.

        ``observer`` becomes the simulator's event tap, called before each
        dispatched callback (see :func:`~repro.session.engine.run_session`).
        A profile is taken this way::

            with Profiler() as profiler:
                spec.run(observer=profiler)
        """
        from repro.session.engine import run_session

        return run_session(self, observer)


def _jsonable(value: object) -> object:
    """JSON-safe encoding of a RUM override value (enums become strings)."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)
