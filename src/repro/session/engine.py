"""The one experiment-session engine.

Every run path of the repro — the fig*/table1 experiment scripts, the
scenario engine and ``python -m repro run`` — executes through
:func:`run_session`.  The sequence of simulation-visible steps is the exact
superset of what the three historical engines did, in the same order, so for
a fixed seed the results (and their digests) are byte-identical with the
pre-session code:

1. build the workload's topology and network, create its flows, preinstall
   its forwarding state;
2. wire the control stack (RUM proxy chain unless the technique is null);
3. start the network, the stack, and — if the workload has traffic — a
   seeded constant-rate traffic generator;
4. build the workload's update plan, execute it through a windowed
   :class:`~repro.controller.update_plan.PlanExecutor`, polling until the
   plan completes or the deadline passes;
5. let traffic drain through the grace window, then settle;
6. post-process: per-flow update statistics, the activation ledger (and
   Figure 8's projection of it), workload metrics — all into one
   :class:`~repro.session.record.RunRecord`.
"""

from __future__ import annotations

from contextlib import ExitStack
from typing import Optional

from repro.analysis.activation import ActivationDelays, activation_ledger
from repro.analysis.flowstats import (
    flow_update_stats,
    mean_update_time,
    update_completion_time,
)
from repro.controller.update_plan import PlanExecutor
from repro.faults.plan import ArmedFaults, arm_fault_plan
from repro.net.network import Network
from repro.net.traffic import TrafficGenerator
from repro.obs.tracer import Tracer
from repro.openflow.messages import rewind_xids
from repro.recovery.manager import RecoveryManager
from repro.session.record import RunRecord
from repro.session.spec import SessionSpec
from repro.session.stack import build_control_stack
from repro.sim.kernel import Observer, Simulator
from repro.sim.rng import SeededRandom


def run_session(spec: SessionSpec,
                observer: Optional[Observer] = None) -> RunRecord:
    """Execute one :class:`SessionSpec` and return its :class:`RunRecord`.

    The session's observation rides on its :class:`~repro.sim.kernel.Simulator`
    and is armed here and nowhere else.  When
    :attr:`~repro.session.spec.SessionSpec.trace` is set, ``sim.tracer`` is
    a collecting :class:`~repro.obs.tracer.Tracer` — every layer that emits
    a semantic event already holds the simulator — and the resulting
    :class:`~repro.obs.events.TraceLog` rides on the record.  ``observer``
    becomes ``sim.observer``, the kernel's event tap: the caller owns it and
    reads it after the run (a :class:`~repro.obs.profiler.Profiler`, the
    determinism gate's recorder).  Both only *observe* — every
    instrumentation site is read-only and none schedules a callback — so a
    traced or observed run executes the kernel steps, and computes the
    outcome (and digest), of the identical bare run.

    The function that builds a graph dismantles it.  A wired session is one
    cycle of references (switch <-> agent <-> channel <-> proxy <->
    controller, all of it on the kernel heap) that only a full cyclic
    collection could free, so every piece registers its own ``close`` on the
    ``dismantle`` stack the moment it exists.  Once the record is complete —
    or the session raises — the heap is emptied and the hooks are cut, and
    reference counting frees the session on return; the record holds nothing
    into it.  Nothing in ``src/`` tunes the collector instead.
    """
    with ExitStack() as dismantle:
        return _run_session(spec, observer, dismantle)


def _run_session(spec: SessionSpec, observer: Optional[Observer],
                 dismantle: ExitStack) -> RunRecord:
    technique = spec.resolved_technique()
    knobs = spec.knobs
    workload = spec.workload

    # 1. Topology, network, flows, pre-update forwarding state ----------------
    rewind_xids()  # every message of the session is built below
    sim = Simulator()
    dismantle.callback(sim.clear)
    if spec.trace:
        sim.tracer = Tracer(technique=technique.name, kind=spec.kind,
                            seed=knobs.seed)
    # The kernel binds its observer locally at each run() entry, so every
    # tap must be in place before the first sim.run below.
    sim.observer = observer
    rng = SeededRandom(knobs.seed)
    topology = workload.build_topology()
    network = Network(sim, topology, seed=knobs.seed)
    dismantle.callback(network.close)
    flows = workload.flows(network)
    workload.preinstall(network, flows)

    # 2. Control stack ---------------------------------------------------------
    stack = build_control_stack(
        sim,
        network,
        technique,
        rum_overrides=spec.stack.rum_overrides,
        with_barrier_layer=spec.stack.with_barrier_layer,
        buffer_after_barrier=spec.stack.buffer_after_barrier,
    )
    dismantle.callback(stack.close)
    stack.prepare()
    network.start()
    stack.start()

    # 2b. Fault plan -----------------------------------------------------------
    # Arms nothing when the spec carries no (or an empty) plan, keeping the
    # fault-free event sequence — and therefore every digest — byte-identical.
    armed: Optional[ArmedFaults] = None
    if spec.faults is not None and not spec.faults.empty():
        armed = arm_fault_plan(sim, network, spec.faults, seed=knobs.seed)

    # 2c. Recovery ---------------------------------------------------------------
    # Only an *active* policy constructs a manager; with ``recovery`` unset
    # (or both mechanisms off) the controller's ``recovery`` attribute stays
    # ``None`` and every send/ack path is byte-identical to the pre-recovery code.
    recovery: Optional[RecoveryManager] = None
    if knobs.recovery is not None and knobs.recovery.active:
        recovery = RecoveryManager(sim, stack.controller, network,
                                   policy=knobs.recovery)
        recovery.attach()
        dismantle.callback(recovery.detach)
        if stack.rum is not None:
            # A crash also wipes RUM's deployment rules (probe catches);
            # without them back a restored neighbourhood cannot confirm
            # anything, so re-seed them before the shadow replay runs.
            stack.controller.reconnect_handlers.append(
                stack.rum.reinstall_deployment)

    # 3. Traffic ----------------------------------------------------------------
    traffic: Optional[TrafficGenerator] = None
    if flows:
        traffic = TrafficGenerator(sim, flows, rng=rng.fork("traffic"))
        traffic.start()

    # 4. Update plan -------------------------------------------------------------
    plan = workload.build_plan(network, flows)
    executor = PlanExecutor(
        sim,
        stack.controller,
        plan,
        max_unconfirmed=knobs.max_unconfirmed,
        barrier_every=knobs.barrier_every,
        ignore_dependencies=technique.ignore_dependencies,
    )
    if knobs.warmup > 0:
        sim.run(until=knobs.warmup)
    executor.start()
    if knobs.run_for is not None:
        # Fixed observation window: the workload is measured over wall time,
        # not until the plan completes.
        sim.run(until=knobs.warmup + knobs.run_for)
    else:
        deadline = knobs.warmup + knobs.max_update_duration
        while not executor.done.triggered and sim.now < deadline:
            sim.run(until=min(sim.now + knobs.poll_interval, deadline))
    completed = executor.done.triggered

    # 5. Grace window / settling -------------------------------------------------
    if traffic is not None:
        stop_at = sim.now + knobs.grace
        traffic.stop_all(stop_at)
        sim.run(until=stop_at + knobs.settle)
    else:
        sim.run(until=sim.now + knobs.settle)

    # 6. Post-processing -----------------------------------------------------------
    markers = workload.new_path_switches(network, flows)
    stats = []
    if markers:
        stats = flow_update_stats(
            network.monitor,
            new_path_switch=markers,
            update_start=knobs.warmup,
            expected_interval=1.0 / knobs.rate_pps,
        )
    dropped = network.monitor.total_dropped()

    ledger = activation_ledger(plan, network, stack.rum)
    probe = spec.activation_probe
    activation = (ActivationDelays.from_ledger(ledger, probe.switch, probe.role,
                                               technique.name)
                  if probe is not None and stack.rum is not None else None)

    metrics = workload.metrics(network, plan, executor)
    acknowledged = sum(1 for op in plan.operations.values() if op.acked)
    duration = executor.duration
    rum_technique = stack.rum.technique if stack.rum is not None else None

    labels = dict(spec.labels)
    record = RunRecord(
        kind=spec.kind,
        technique=technique.name,
        spec=spec.config(),
        scenario=labels.get("scenario"),
        topology=topology.name,
        seed=knobs.seed,
        scale=labels.get("scale"),
        update_start=knobs.warmup,
        update_duration=duration,
        completed=completed,
        flows_run=len(flows),
        plan_size=len(plan),
        acknowledged_rules=acknowledged,
        usable_rate=(acknowledged / duration) if duration else None,
        dropped_packets=dropped,
        mean_update_time=mean_update_time(stats),
        completion_time=update_completion_time(stats),
        stats=stats,
        activation=activation,
        metrics=metrics,
        rum_description=(stack.rum.describe() if stack.rum is not None
                         else technique.name),
        barrier_layer_held=(stack.barrier_layer.barriers_held
                            if stack.barrier_layer else 0),
        rum_probe_rule_updates=getattr(rum_technique, "probe_rule_updates_sent", 0),
        rum_probes_injected=getattr(rum_technique, "probes_injected", 0),
        fault_events=armed.counters() if armed is not None else {},
        recovery=recovery.report() if recovery is not None else {},
        ledger=ledger,
    )
    if sim.tracer is not None:
        record.trace = sim.tracer.finish(meta={
            "topology": topology.name,
            "faults": (spec.faults.to_string()
                       if spec.faults is not None else "none"),
            "kernel": sim.stats(),
        })
    return record
