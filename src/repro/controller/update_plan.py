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

from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.controller.base import AckMode, Controller
from repro.obs.events import PHASE_ACK_RECEIVED, PHASE_UPDATE_ISSUED
from repro.openflow.messages import FlowMod
from repro.sim.events import Event
from repro.sim.kernel import Simulator


@dataclass
class UpdateOperation:
    """One rule modification inside an update plan."""

    switch: str
    flowmod: FlowMod
    #: Position in its plan, from 1 (:meth:`UpdatePlan.add` numbers it).
    op_id: int
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
        for dep in after or ():
            if self.operations.get(dep.op_id) is not dep:
                raise ValueError(f"dependency {dep.op_id} not in plan")
        operation = UpdateOperation(
            switch=switch,
            flowmod=flowmod,
            op_id=len(self.operations) + 1,
            depends_on=[dep.op_id for dep in (after or ())],
            label=label,
            role=role,
        )
        self.operations[operation.op_id] = operation
        return operation

    def __len__(self) -> int:
        return len(self.operations)

    def by_role(self, role: str) -> List[UpdateOperation]:
        """Operations with the given role, in insertion order."""
        return [op for op in self.operations.values() if op.role == role]

    def validate(self) -> None:
        """Raise :class:`ValueError` if the dependency graph has a cycle.

        :meth:`add` only records dependencies on earlier operations, so a
        cycle needs a ``depends_on`` edited afterwards to name an operation
        that is not earlier; that is what is checked.
        """
        for operation in self.operations.values():
            if not all(0 < dep < operation.op_id for dep in operation.depends_on):
                raise ValueError(f"update plan {self.name!r} has a cycle or unknown dependency")

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

        #: Set while :meth:`_pump` issues: an ack arriving meanwhile (a no-wait
        #: ack completes inside ``send_flowmod``) only queues work for its loop.
        self._pumping = False
        #: Counts only: whether an operation was issued or acked is its own
        #: ``issued_at`` / ``acked_at``.
        self._in_flight = 0
        self._acked = 0
        self._unbarriered: Dict[str, int] = defaultdict(int)
        self._dependents: Dict[int, List[UpdateOperation]] = defaultdict(list)
        for operation in plan.operations.values():
            for dep in operation.depends_on:
                self._dependents[dep].append(operation)
        self._ready: deque = deque(
            op for op in plan.operations.values()
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
        self._pumping = True
        while self._ready and self._in_flight < self.max_unconfirmed:
            operation = self._ready.popleft()
            if not operation.issued:
                self._issue(operation)
        self._pumping = False
        # In barrier mode an idle moment with unbarriered FlowMods means the
        # outstanding acks can never resolve; flush with a barrier.
        if self.controller.ack_mode == AckMode.BARRIER:
            blocked = not self._ready or self._in_flight >= self.max_unconfirmed
            if blocked:
                for switch, count in list(self._unbarriered.items()):
                    if count > 0:
                        self._unbarriered[switch] = 0
                        self.controller.send_barrier(switch)

    def _issue(self, operation: UpdateOperation) -> None:
        operation.issued_at = self.sim.now
        self._in_flight += 1
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
        if operation.acked:
            return
        operation.acked_at = self.sim.now
        self._acked += 1
        self._in_flight -= 1
        tr = self.sim.tracer
        if tr is not None:
            tr.rule(PHASE_ACK_RECEIVED, self.sim.now, operation.switch,
                    operation.flowmod.xid, detail=operation.role)
        if not self.ignore_dependencies:
            operations = self.plan.operations
            for dependent in self._dependents.get(operation.op_id, []):
                if not dependent.issued and all(
                        operations[dep].acked for dep in dependent.depends_on):
                    self._ready.append(dependent)
        if self._acked == len(self.plan.operations):
            self.finished_at = self.sim.now
            if not self.done.triggered:
                self.done.succeed(self.sim.now)
            return
        if not self._pumping:
            self._pump()

    # -- results ------------------------------------------------------------------
    @property
    def duration(self) -> Optional[float]:
        """Wall-clock (simulated) duration of the whole plan, once finished."""
        if self.started_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.started_at

    def failed_operations(self) -> List[UpdateOperation]:
        """Issued operations whose acks the controller gave up on.

        Non-empty only when the recovery machinery abandoned un-acked
        FlowMods after exhausting their retransmission budget (see
        :meth:`repro.controller.base.Controller.fail_ack`).
        """
        return [
            op for op in self.plan.operations.values()
            if op.issued and not op.acked
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
            "issued": sum(op.issued for op in self.plan.operations.values()),
            "acked": self._acked,
            "in_flight": self._in_flight - failed,
            "failed": failed,
            "completed": self.done.triggered,
            "duration": self.duration,
        }
