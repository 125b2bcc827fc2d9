"""Dependency-ordered network update plans and their windowed executor.

Every consistent-update scheme the paper cites boils down to the same
controller-side pattern: split the update into operations with "X after Y"
dependencies, and only issue an operation once the operations it depends on
are *known to be in effect*.  The :class:`UpdatePlan` captures the DAG, the
:class:`PlanExecutor` issues operations subject to

* the dependency order,
* a bound K on the number of unconfirmed modifications in flight
  (the paper's low-level benchmarks sweep K), and
* the controller's acknowledgment mode (RUM confirmations, barriers, or
  nothing at all for the "no wait" lower bound).

The executor records per-operation issue and acknowledgment times; the
analysis layer correlates them with data-plane activation times measured at
the switches.
"""

from __future__ import annotations

import itertools
from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

import networkx as nx

from repro.controller.base import AckMode, Controller
from repro.obs.events import PHASE_ACK_RECEIVED, PHASE_UPDATE_ISSUED
from repro.openflow.messages import FlowMod
from repro.sim.events import Event
from repro.sim.kernel import Simulator

_operation_ids = itertools.count(1)


@dataclass
class UpdateOperation:
    """One rule modification inside an update plan."""

    switch: str
    flowmod: FlowMod
    op_id: int = field(default_factory=lambda: next(_operation_ids))
    depends_on: List[int] = field(default_factory=list)
    #: Free-form grouping label, e.g. the flow id this operation belongs to.
    label: str = ""
    #: Role of the operation inside its group, e.g. ``"new-path"`` or
    #: ``"ingress-flip"``; used by the analysis layer.
    role: str = ""

    issued_at: Optional[float] = None
    acked_at: Optional[float] = None

    @property
    def issued(self) -> bool:
        """Whether the executor already sent this operation."""
        return self.issued_at is not None

    @property
    def acked(self) -> bool:
        """Whether the acknowledgment for this operation arrived."""
        return self.acked_at is not None


class UpdatePlan:
    """A DAG of update operations."""

    def __init__(self, name: str = "update") -> None:
        self.name = name
        self.operations: Dict[int, UpdateOperation] = {}

    def add(
        self,
        switch: str,
        flowmod: FlowMod,
        after: Optional[List[UpdateOperation]] = None,
        label: str = "",
        role: str = "",
    ) -> UpdateOperation:
        """Add an operation that must run after the given operations."""
        operation = UpdateOperation(
            switch=switch,
            flowmod=flowmod,
            depends_on=[dep.op_id for dep in (after or [])],
            label=label,
            role=role,
        )
        for dep in operation.depends_on:
            if dep not in self.operations:
                raise ValueError(f"dependency {dep} not in plan")
        self.operations[operation.op_id] = operation
        return operation

    def __len__(self) -> int:
        return len(self.operations)

    def by_label(self, label: str) -> List[UpdateOperation]:
        """Operations belonging to a group label, in insertion order."""
        return [op for op in self.operations.values() if op.label == label]

    def by_role(self, role: str) -> List[UpdateOperation]:
        """Operations with the given role, in insertion order."""
        return [op for op in self.operations.values() if op.role == role]

    def labels(self) -> List[str]:
        """All distinct labels in insertion order."""
        seen: List[str] = []
        for op in self.operations.values():
            if op.label and op.label not in seen:
                seen.append(op.label)
        return seen

    def graph(self) -> nx.DiGraph:
        """The dependency graph (edges point from prerequisite to dependent)."""
        graph = nx.DiGraph()
        graph.add_nodes_from(self.operations)
        for operation in self.operations.values():
            for dep in operation.depends_on:
                graph.add_edge(dep, operation.op_id)
        return graph

    def validate(self) -> None:
        """Raise :class:`ValueError` if the dependency graph has a cycle."""
        if not nx.is_directed_acyclic_graph(self.graph()):
            raise ValueError(f"update plan {self.name!r} has cyclic dependencies")

    def completed(self) -> bool:
        """Whether every operation has been acknowledged."""
        return all(operation.acked for operation in self.operations.values())


class PlanExecutor:
    """Issues an :class:`UpdatePlan` through a controller.

    Parameters
    ----------
    max_unconfirmed:
        The K of the paper's benchmarks: at most this many issued-but-not-yet
        acknowledged modifications at any time (per executor, across
        switches, matching the paper's single-switch benchmark setup).
    barrier_every:
        In :data:`AckMode.BARRIER` the executor sends a barrier after this
        many FlowMods on a switch (and whenever it runs out of work), since
        barrier replies are what resolve the acknowledgments.
    ignore_dependencies:
        The "no wait" mode of Figure 7: operations are issued as fast as the
        window allows, regardless of dependencies (no consistency).
    """

    def __init__(
        self,
        sim: Simulator,
        controller: Controller,
        plan: UpdatePlan,
        max_unconfirmed: int = 300,
        barrier_every: int = 10,
        ignore_dependencies: bool = False,
    ) -> None:
        if max_unconfirmed < 1:
            raise ValueError("max_unconfirmed must be >= 1")
        plan.validate()
        self.sim = sim
        self.controller = controller
        self.plan = plan
        self.max_unconfirmed = max_unconfirmed
        self.barrier_every = max(1, barrier_every)
        self.ignore_dependencies = ignore_dependencies

        self.done: Event = sim.event(name=f"plan-{plan.name}-done")
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None

        self._in_flight: Set[int] = set()
        self._acked: Set[int] = set()
        self._issued: Set[int] = set()
        self._unbarriered: Dict[str, int] = defaultdict(int)
        self._dependents: Dict[int, List[int]] = defaultdict(list)
        for operation in plan.operations.values():
            for dep in operation.depends_on:
                self._dependents[dep].append(operation.op_id)
        self._ready: deque = deque(
            op.op_id
            for op in plan.operations.values()
            if not op.depends_on or ignore_dependencies
        )

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> Event:
        """Begin issuing operations; returns the completion event."""
        if self.started_at is not None:
            return self.done
        self.started_at = self.sim.now
        if not self.plan.operations:
            self.finished_at = self.sim.now
            self.done.succeed(self.sim.now)
            return self.done
        self._pump()
        return self.done

    # -- internals --------------------------------------------------------------
    def _pump(self) -> None:
        while self._ready and len(self._in_flight) < self.max_unconfirmed:
            op_id = self._ready.popleft()
            if op_id in self._issued:
                continue
            self._issue(self.plan.operations[op_id])
        # In barrier mode an idle moment with unbarriered FlowMods means the
        # outstanding acks can never resolve; flush with a barrier.
        if self.controller.ack_mode == AckMode.BARRIER:
            blocked = not self._ready or len(self._in_flight) >= self.max_unconfirmed
            if blocked:
                for switch, count in list(self._unbarriered.items()):
                    if count > 0:
                        self._unbarriered[switch] = 0
                        self.controller.send_barrier(switch)

    def _issue(self, operation: UpdateOperation) -> None:
        operation.issued_at = self.sim.now
        self._issued.add(operation.op_id)
        self._in_flight.add(operation.op_id)
        tr = self.sim.tracer
        if tr is not None:
            tr.rule(PHASE_UPDATE_ISSUED, self.sim.now, operation.switch,
                    operation.flowmod.xid, detail=operation.role)
        ack = self.controller.send_flowmod(operation.switch, operation.flowmod)
        ack.event.add_callback(lambda _event, op=operation: self._on_acked(op))
        if self.controller.ack_mode == AckMode.BARRIER:
            self._unbarriered[operation.switch] += 1
            if self._unbarriered[operation.switch] >= self.barrier_every:
                self._unbarriered[operation.switch] = 0
                self.controller.send_barrier(operation.switch)

    def _on_acked(self, operation: UpdateOperation) -> None:
        if operation.op_id in self._acked:
            return
        operation.acked_at = self.sim.now
        self._acked.add(operation.op_id)
        self._in_flight.discard(operation.op_id)
        tr = self.sim.tracer
        if tr is not None:
            tr.rule(PHASE_ACK_RECEIVED, self.sim.now, operation.switch,
                    operation.flowmod.xid, detail=operation.role)
        if not self.ignore_dependencies:
            for dependent_id in self._dependents.get(operation.op_id, []):
                dependent = self.plan.operations[dependent_id]
                if dependent.issued:
                    continue
                if all(dep in self._acked for dep in dependent.depends_on):
                    self._ready.append(dependent_id)
        if len(self._acked) == len(self.plan.operations):
            self.finished_at = self.sim.now
            if not self.done.triggered:
                self.done.succeed(self.sim.now)
            return
        self._pump()

    # -- results ------------------------------------------------------------------
    @property
    def duration(self) -> Optional[float]:
        """Wall-clock (simulated) duration of the whole plan, once finished."""
        if self.started_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.started_at

    def ack_times(self) -> Dict[int, float]:
        """``op_id -> acknowledgment time`` for all acknowledged operations."""
        return {
            op_id: op.acked_at
            for op_id, op in self.plan.operations.items()
            if op.acked_at is not None
        }

    def effective_rate(self) -> Optional[float]:
        """Acknowledged operations per second over the plan's duration."""
        if not self.duration or self.duration <= 0:
            return None
        return len(self._acked) / self.duration

    def failed_operations(self) -> List[UpdateOperation]:
        """Issued operations whose acks the controller gave up on.

        Non-empty only when the recovery machinery abandoned un-acked
        FlowMods after exhausting their retransmission budget (see
        :meth:`repro.controller.base.Controller.fail_ack`).
        """
        return [
            op for op_id, op in self.plan.operations.items()
            if op_id in self._issued and not op.acked
            and self.controller.ack_failed(op.switch, op.flowmod.xid)
        ]

    def summary(self) -> Dict[str, object]:
        """Flat progress/outcome view of the execution (JSON-able).

        ``failed`` counts operations stranded by abandoned acks — before the
        recovery subsystem these sat in ``in_flight`` forever; now they are
        reported as their own terminal state.
        """
        failed = len(self.failed_operations())
        return {
            "plan": self.plan.name,
            "operations": len(self.plan.operations),
            "issued": len(self._issued),
            "acked": len(self._acked),
            "in_flight": len(self._in_flight) - failed,
            "failed": failed,
            "completed": self.done.triggered,
            "duration": self.duration,
        }
