"""Fault-injection subsystem: registry, fault models, declarative plans.

The paper's central finding is that switches misbehave at the control/data
plane boundary — acknowledgments arrive before rules are active, delays
spike to seconds, updates get applied out of order.  This package turns
"switches lie" from a hardcoded experiment condition into a configurable
axis of every run: a fault-model catalogue (:mod:`repro.faults.registry`,
mirroring the acknowledgment technique catalogue: adding a fault is
defining a subclass with a ``name``), seeded composable fault models on all
three layers where the real bugs live, and a declarative
:class:`~repro.faults.plan.FaultPlan` that rides on ``SessionSpec`` so
sessions, scenarios and campaign grids sweep faults with zero per-path
wiring.

Registered fault models:

=================  ===============  ===========================================
``delay-spike``    data plane       control→data plane lag spikes to seconds
``reorder``        data plane       rules applied out of order
``rule-drop``      data plane       a rule silently never becomes active
``ack-loss``       control channel  barrier replies lost in transit
``ack-duplicate``  control channel  barrier replies delivered repeatedly
``premature-ack``  control channel  barriers acked before the switch acts
``channel-jitter`` control channel  per-message latency inflation (FIFO kept)
``disconnect``     control channel  connection down for a window, traffic lost
``switch-crash``   lifecycle        crash + restart with a flow-table wipe
``link-flap``      lifecycle        ports dark for a window, tables survive
=================  ===============  ===========================================

Typical use::

    from repro.faults import FaultPlan
    from repro.session import SessionSpec

    spec = ...                                  # any SessionSpec
    spec.faults = FaultPlan.from_string("ack-loss(probability=0.3)")
    record = spec.run()
    print(record.completed, record.fault_events)

An absent or empty plan arms nothing and is byte-identical (same digests) to
the fault-free path.
"""

from repro.faults.base import (
    CONTROL_CHANNEL,
    DATA_PLANE,
    FAULT_LAYERS,
    LIFECYCLE,
    ControlChannelFault,
    DataPlaneFault,
    FaultModel,
    LifecycleFault,
)
from repro.faults.harness import (
    CONTROLLER_SIDE,
    SWITCH_SIDE,
    ChannelHook,
    ControlChannelHarness,
    DataPlaneFaultHarness,
)
from repro.faults.plan import (
    NO_FAULTS,
    ArmedFaults,
    FaultPlan,
    FaultSpec,
    GroupSpec,
    RollingSpec,
    arm_fault_plan,
    resolve_targets,
)
from repro.faults.registry import FAULTS, available_faults, get_fault

# Importing the model modules populates the registry.
from repro.faults import control as _control  # noqa: F401
from repro.faults import lifecycle as _lifecycle  # noqa: F401
from repro.faults.dataplane import DelaySpikeFault, ReorderFault, RuleDropFault

__all__ = [
    "ArmedFaults",
    "CONTROLLER_SIDE",
    "CONTROL_CHANNEL",
    "ChannelHook",
    "ControlChannelFault",
    "ControlChannelHarness",
    "DATA_PLANE",
    "DataPlaneFault",
    "DataPlaneFaultHarness",
    "DelaySpikeFault",
    "FAULTS",
    "FAULT_LAYERS",
    "FaultModel",
    "FaultPlan",
    "FaultSpec",
    "LIFECYCLE",
    "LifecycleFault",
    "NO_FAULTS",
    "ReorderFault",
    "RuleDropFault",
    "SWITCH_SIDE",
    "arm_fault_plan",
    "available_faults",
    "get_fault",
]
