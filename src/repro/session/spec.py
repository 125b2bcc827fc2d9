"""The typed experiment-session specification.

A :class:`SessionSpec` is the one declarative description of "run this
update workload with this acknowledgment technique and measure it": a
workload + technique + :class:`StackSpec`/:class:`SessionKnobs`.  The
workload is one object with the scenario protocol of
:class:`~repro.scenarios.base.Scenario` — ``build_topology()``,
``flows(network)``, ``preinstall(network, flows)``,
``build_plan(network, flows)``, ``new_path_switches(network, flows)``,
and ``metrics(network, plan, executor)`` — whether or not it is a
registered scenario.
``SessionSpec.run()`` executes it through the single engine in
:mod:`repro.session.engine` and returns a
:class:`~repro.session.record.RunRecord`.

The historical entry points — ``run_path_migration``, ``run_rule_install``,
``repro.scenarios.engine.run_scenario`` and the campaign runner — are thin
adapters that build one of these specs, so a new technique or workload
registered once is immediately runnable from every path.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Dict, Optional, Type, Union

from repro.core.techniques.base import AckTechnique
from repro.core.techniques.registry import resolve_technique
from repro.faults.plan import FaultPlan
from repro.recovery.policy import RecoveryPolicy
from repro.sim.kernel import Observer

if TYPE_CHECKING:
    from repro.scenarios.base import Scenario


@dataclass
class StackSpec:
    """How the control stack above the switches is assembled."""

    #: Values for the technique's declared parameters
    #: (:attr:`~repro.core.techniques.base.AckTechnique.parameters`); a key
    #: it does not declare, or a value out of range, is refused when the
    #: session's control stack is built.
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
    #: Controller-side recovery policy (retransmits + crash resync); ``None``,
    #: the one spelling of "no recovery", keeps the pre-recovery code paths
    #: byte-identical.  See :mod:`repro.recovery`.
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
    #: What runs: any object with the :class:`~repro.scenarios.base.Scenario`
    #: protocol (see the module docstring).
    workload: "Scenario"
    stack: StackSpec = field(default_factory=StackSpec)
    knobs: SessionKnobs = field(default_factory=SessionKnobs)
    #: Faults armed against the network for this run (``None`` or an empty
    #: plan: the byte-identical fault-free path).  See :mod:`repro.faults`.
    faults: Optional[FaultPlan] = None
    activation_probe: Optional[ActivationProbe] = None
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

        The workload is code, not data, so the encoding carries the
        declarative parts: kind, technique, labels, stack and knobs.
        Adapters put their own reconstruction parameters into :attr:`labels`.
        """
        config: Dict[str, object] = {
            "kind": self.kind,
            "technique": self.resolved_technique().name,
            "labels": dict(self.labels),
            "stack": {
                "rum_overrides": dict(self.stack.rum_overrides),
                "with_barrier_layer": self.stack.with_barrier_layer,
                "buffer_after_barrier": self.stack.buffer_after_barrier,
            },
            "knobs": self._knobs_config(),
            # A plan travels as its DSL string; an empty plan normalises to
            # None: both mean the fault-free path.  The key predates
            # only-when-armed encoding; persisted configs carry it, so it stays.
            "faults": (self.faults.to_string()
                       if self.faults is not None and not self.faults.empty()
                       else None),
        }
        # Key present only when armed, so trace-off configs stay byte-identical
        # to configs produced before tracing existed.
        if self.trace:
            config["trace"] = True
        return config

    def _knobs_config(self) -> Dict[str, object]:
        """JSON form of the knobs; ``recovery`` is the policy's string, if any.

        An absent policy is "no recovery": omitting the key keeps knob
        encodings byte-identical to configs produced before that subsystem
        existed.
        """
        knobs = asdict(self.knobs)
        del knobs["recovery"]
        if self.knobs.recovery is not None:
            knobs["recovery"] = self.knobs.recovery.to_string()
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
