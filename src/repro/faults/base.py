"""Base classes of the fault-model hierarchy.

The paper's misbehaviours live at three distinct layers of a switch, and the
fault subsystem mirrors that split with one base class per layer:

* :class:`DataPlaneFault` — sits at the control→data plane boundary (the
  ``apply_to_dataplane`` hook) and can delay, drop or reorder the moment a
  rule becomes visible to packets while the control plane believes it is
  already active.
* :class:`ControlChannelFault` — sits on the OpenFlow control connection
  (:class:`~repro.openflow.connection.Connection`) and can lose, duplicate,
  delay or fabricate messages: lost acks, duplicated acks, premature acks,
  latency jitter, disconnects.
* :class:`LifecycleFault` — acts on the switch as a whole
  (:meth:`~repro.switches.base.Switch.crash`/``restore``): crash/restart
  with a flow-table wipe.

Adding a fault model is defining a subclass of one of them with a
``name``: that registers it (:mod:`repro.faults.registry`), and a
:class:`~repro.faults.plan.FaultPlan` instantiates it once per target
switch, each with its own deterministically forked
:class:`~repro.sim.rng.SeededRandom`.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, Mapping, Optional

from repro.faults.registry import FAULTS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.kernel import Simulator
    from repro.sim.rng import SeededRandom
    from repro.switches.base import Switch

#: The three layers a fault model can attach to.
DATA_PLANE = "dataplane"
CONTROL_CHANNEL = "control-channel"
LIFECYCLE = "lifecycle"

FAULT_LAYERS = (DATA_PLANE, CONTROL_CHANNEL, LIFECYCLE)


class FaultModel:
    """One seeded, parameterised fault model instance.

    Subclasses declare ``name`` (the registry key: setting it registers the
    class), ``layer`` (one of :data:`FAULT_LAYERS`) and ``param_defaults``
    (every accepted parameter with its default value); the constructor
    rejects unknown parameters so a typo in a
    :class:`~repro.faults.plan.FaultSpec` fails loudly instead of silently
    running the fault-free behaviour, and rejects a non-finite float — which
    no fault-plan string can spell — for every model at once.
    """

    #: Registry key; concrete, sweepable subclasses set it.
    name: str = ""
    #: Which layer the fault attaches to (one of :data:`FAULT_LAYERS`).
    layer: str = ""
    #: Accepted parameters and their defaults.
    param_defaults: Mapping[str, object] = {}

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if "name" not in cls.__dict__:
            return
        if cls.layer not in FAULT_LAYERS:
            raise ValueError(
                f"{cls.__name__}.layer must be one of {FAULT_LAYERS}, "
                f"not {cls.layer!r}"
            )
        FAULTS.add(cls.name, cls)

    def __init__(self, **params: object) -> None:
        unknown = sorted(set(params) - set(self.param_defaults))
        if unknown:
            raise ValueError(
                f"fault {self.name or type(self).__name__!r} does not accept "
                f"parameter(s) {unknown}; accepted: {sorted(self.param_defaults)}"
            )
        self.params: Dict[str, object] = {**self.param_defaults, **params}
        for key, value in self.params.items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(
                    f"fault {self.name!r} parameter {key}={value} is not finite")
            setattr(self, key, value)
        self.events: Dict[str, int] = {}
        self.sim: Optional["Simulator"] = None
        self.rng: Optional["SeededRandom"] = None
        self.validate()
        self.setup()

    # -- subclass hooks -------------------------------------------------------
    def validate(self) -> None:
        """Reject out-of-range parameter values (raise ``ValueError``)."""

    def setup(self) -> None:
        """Initialise per-instance state (buffers, pending sets, ...)."""

    # -- lifecycle -------------------------------------------------------------
    def arm(self, sim: "Simulator", rng: "SeededRandom") -> None:
        """Bind to the simulation before first use."""
        self.sim = sim
        self.rng = rng

    # -- counters ---------------------------------------------------------------
    def count(self, event: str, n: int = 1) -> None:
        """Record ``n`` occurrences of ``event`` (reported into the record)."""
        self.events[event] = self.events.get(event, 0) + n
        tr = self.sim.tracer
        if tr is not None:
            # Every fault model funnels its activations through here, which
            # makes this the one hook the timeline's fault overlay needs.
            tr.fault(self.sim.now, switch=getattr(self, "_trace_target", ""),
                     detail=f"{self.name}.{event}")

    def counters(self) -> Dict[str, int]:
        """``event name -> occurrence count`` since arming."""
        return dict(self.events)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        params = ", ".join(f"{k}={v!r}" for k, v in sorted(self.params.items()))
        return f"<{type(self).__name__} {self.name}({params})>"


class DataPlaneFault(FaultModel):
    """A fault at the control→data plane boundary of one switch.

    Armed by redirecting the switch's ``apply_to_dataplane`` hook through
    :class:`~repro.faults.harness.DataPlaneFaultHarness`.
    """

    layer = DATA_PLANE

    def intercept(self, flowmod, apply) -> bool:
        """Handle one data-plane application.

        ``apply`` is the unfaulted ``(flowmod, now) -> None`` hook.  Return
        ``True`` when the fault consumed the application (it will apply — or
        drop — it itself), ``False`` to let it proceed normally.
        """
        raise NotImplementedError


class ControlChannelFault(FaultModel):
    """A fault on one switch's OpenFlow control connection.

    Armed by installing a :class:`~repro.faults.harness.ControlChannelHarness`
    interceptor on the connection; :meth:`on_transmit` sees every message in
    both directions *before* it is scheduled for delivery.
    """

    layer = CONTROL_CHANNEL

    def on_transmit(self, channel, from_side: int, message) -> bool:
        """Handle one message entering the channel.

        ``channel`` is a :class:`~repro.faults.harness.ChannelHook` that can
        forward (optionally with extra latency) or fabricate messages;
        ``from_side`` is :data:`~repro.faults.harness.SWITCH_SIDE` or
        :data:`~repro.faults.harness.CONTROLLER_SIDE`.  Return ``True`` when
        the fault consumed the message (dropped, delayed or replaced it),
        ``False`` to let the next fault — and finally the normal delivery —
        see it.
        """
        raise NotImplementedError


class LifecycleFault(FaultModel):
    """A fault acting on the switch as a whole (crash, restart)."""

    layer = LIFECYCLE

    def schedule(self, switch: "Switch") -> None:
        """Install the fault's timed actions against ``switch``."""
        raise NotImplementedError
