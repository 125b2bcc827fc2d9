"""The generator-based switch agent the callback chain replaced — test oracle.

``repro.switches.controlplane.ControlPlane`` used to be two generator
processes (``_main_loop`` fed by a :class:`Queue`, ``_rate_limited_sync_loop``
parked on an :class:`~repro.sim.events.Event`).  They live on here, copied
from the last commit that had them, as the reference the callback chain is
held to event for event (``tests/property/test_agent_callbacks.py``) and as
the base of the polling oracle in ``tests/property/test_parked_sync.py``.
:class:`Queue` — ``repro.sim.resources`` is gone from ``src/`` — keeps its
unit tests in ``tests/unit/test_sim_resources.py``.

Two deliberate differences from that commit:

* the crash epoch a message is judged by is taken by ``_main_loop`` when it
  receives the message, *before* the stolen-time sleep, and handed down to
  the ``_handle_*`` generators (each used to read it after that sleep, so a
  crash + restart inside the sleep let a pre-crash message through);
* the generators are started by :func:`spawn`, since the kernel runs plain
  callbacks only and ``Simulator.process`` is gone; ``spawn`` makes the heap
  entries the process did, so the event stream is the one it produced.

``start`` lost its ``PERIODIC_BATCH`` branch with that sync model.  Nothing
else was edited.
"""

from collections import deque
from typing import Any, Callable, Deque, Generator, Optional

from repro.obs.events import (
    PHASE_ACK_SENT,
    PHASE_CONTROL_APPLIED,
    PHASE_SWITCH_RECEIVED,
)
from repro.openflow.constants import OFErrorCode, OFErrorType, StatsType
from repro.openflow.flowtable import TableFullError
from repro.openflow.messages import (
    BarrierReply,
    BarrierRequest,
    EchoReply,
    EchoRequest,
    ErrorMessage,
    FeaturesReply,
    FeaturesRequest,
    FlowMod,
    Hello,
    OFMessage,
    PacketOut,
    StatsReply,
    StatsRequest,
)
from repro.sim.events import Event
from repro.sim.kernel import Simulator
from repro.switches.controlplane import ControlPlane, PendingOperation, _BarrierWaiter
from repro.switches.profiles import BarrierMode, DataPlaneSyncModel


def spawn(sim: Simulator, generator: Generator) -> None:
    """Run ``generator`` on ``sim``, heap entry for heap entry as the deleted
    ``Simulator.process`` did: a zero-delay start entry; a yielded number is
    a sleep, one heap entry; a yielded :class:`Event` resumes the generator
    with the event's value from inside the event's dispatch."""

    def step(value: Any = None) -> None:
        try:
            yielded = generator.send(value)
        except StopIteration:
            return
        if isinstance(yielded, Event):
            yielded.add_callback(lambda event: step(event.value))
        else:
            sim.schedule_callback(yielded, step)

    sim.schedule_callback(0.0, step)


class Queue:
    """Unbounded FIFO queue with blocking ``get`` for spawned generators.

    ``put`` never blocks.  ``get`` returns an :class:`Event` that a generator
    can ``yield``; it completes with the next item as soon as one is available.
    """

    __slots__ = ("sim", "name", "_items", "_getters")

    def __init__(self, sim: Simulator, name: str = "") -> None:
        self.sim = sim
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def pending_getters(self) -> int:
        """Number of generators currently blocked on :meth:`get`."""
        return len(self._getters)

    def put(self, item: Any) -> None:
        """Append ``item``; wakes the oldest waiting getter if there is one."""
        if self._getters:
            getter = self._getters.popleft()
            # Deliver asynchronously so the producer is not re-entered by the
            # consumer's continuation.
            self.sim.schedule_callback(0.0, self._deliver, getter, item)
        else:
            self._items.append(item)

    @staticmethod
    def _deliver(getter: Event, item: Any) -> None:
        if not getter.triggered:
            getter.succeed(item)

    def get(self) -> Event:
        """Return an event that completes with the next item."""
        event = self.sim.event(name=f"{self.name}.get")
        if self._items:
            item = self._items.popleft()
            self.sim.schedule_callback(0.0, self._deliver, event, item)
        else:
            self._getters.append(event)
        return event

    def get_nowait(self) -> Optional[Any]:
        """Pop and return the next item, or ``None`` when empty."""
        if self._items:
            return self._items.popleft()
        return None

    def clear(self) -> None:
        """Drop all queued items (waiting getters stay blocked)."""
        self._items.clear()

    def snapshot(self) -> list:
        """A copy of the queued items, oldest first (for inspection in tests)."""
        return list(self._items)


class GeneratorControlPlane(ControlPlane):
    """``ControlPlane`` driven by the two generators."""

    def __init__(self, sim, *args, name: str = "switch", **kwargs) -> None:
        super().__init__(sim, *args, name=name, **kwargs)
        self.inbox: Queue = Queue(sim, name=f"{name}.inbox")

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> None:
        """Start the control-plane processing and data-plane sync generators."""
        if self._started:
            return
        self._started = True
        spawn(self.sim, self._main_loop())
        if self.profile.sync_model == DataPlaneSyncModel.RATE_LIMITED:
            spawn(self.sim, self._rate_limited_sync_loop())

    def receive(self, message: OFMessage) -> None:
        """Entry point for messages arriving on the controller connection."""
        if self.crashed:
            # The TCP connection of a crashed switch is gone; anything the
            # controller still had in flight is lost.
            return
        tr = self.sim.tracer
        if tr is not None and isinstance(message, (FlowMod, BarrierRequest)):
            tr.rule(PHASE_SWITCH_RECEIVED, self.sim.now, self.name,
                    message.xid, detail=type(message).__name__)
        self.inbox.put(message)

    def crash_reset(self, wipe_table: bool = True) -> None:
        """Drop all in-flight state on a switch crash (lifecycle faults)."""
        self.crashed = True
        self.crash_epoch += 1
        self.inbox.clear()
        self._pending_ops.clear()
        self._barrier_waiters.clear()
        self._stolen_time = 0.0
        self._applied_xids.clear()
        if wipe_table:
            self.table.clear()

    # -- main control-plane loop ---------------------------------------------------
    def _main_loop(self):
        while True:
            message = yield self.inbox.get()
            if self.crashed:
                # Messages queued before the crash die with the agent.
                continue
            # Time stolen by PacketIn encapsulation since the last message is
            # charged here, serialising it with FlowMod processing the way a
            # single management CPU would.
            epoch = self.crash_epoch  # the fix: taken *before* the stolen-time sleep
            if self._stolen_time > 0:
                stolen, self._stolen_time = self._stolen_time, 0.0
                yield stolen
            yield from self._dispatch(message, epoch)

    def _dispatch(self, message: OFMessage, epoch: int):
        if isinstance(message, FlowMod):
            yield from self._handle_flowmod(message, epoch)
        elif isinstance(message, BarrierRequest):
            yield from self._handle_barrier(message, epoch)
        elif isinstance(message, PacketOut):
            yield from self._handle_packet_out(message, epoch)
        elif isinstance(message, EchoRequest):
            yield self.profile.trivial_processing_time
            self._send(EchoReply(payload=message.payload, xid=message.xid))
        elif isinstance(message, FeaturesRequest):
            yield self.profile.trivial_processing_time
            self._send(FeaturesReply(self.datapath_id, self.ports, xid=message.xid))
        elif isinstance(message, StatsRequest):
            yield from self._handle_stats(message, epoch)
        elif isinstance(message, Hello):
            yield self.profile.trivial_processing_time
        else:
            # Unknown message: consume trivial time and ignore, as a real
            # agent would for unsupported-but-harmless messages.
            yield self.profile.trivial_processing_time

    # -- FlowMod ---------------------------------------------------------------------
    def _handle_flowmod(self, flowmod: FlowMod, epoch: int):
        processing = self.rng.jitter(
            self.profile.flowmod_processing_time(len(self.table)),
            self.profile.flowmod_jitter,
        )
        yield processing
        if self.crashed or self.crash_epoch != epoch:
            # The agent died mid-processing (even if it restarted since):
            # the modification is lost and must not touch the wiped tables.
            return
        if flowmod.xid in self._applied_xids:
            # A controller-side retransmission of a FlowMod this boot already
            # applied: drop it (same-xid delivery is exactly-once per boot).
            self.duplicate_flowmods += 1
            return
        try:
            self.table.apply_flowmod(flowmod, now=self.sim.now)
        except TableFullError:
            self._send(ErrorMessage(OFErrorType.FLOW_MOD_FAILED,
                                    int(OFErrorCode.ALL_TABLES_FULL), data=flowmod.xid,
                                    xid=flowmod.xid))
            return
        self._applied_xids.add(flowmod.xid)
        self.flowmods_processed += 1
        self.control_apply_log[flowmod.xid] = self.sim.now
        tr = self.sim.tracer
        if tr is not None:
            tr.rule(PHASE_CONTROL_APPLIED, self.sim.now, self.name, flowmod.xid)

        operation = PendingOperation(flowmod, received_at=self.sim.now,
                                     barrier_epoch=self._barrier_epoch)
        operation.control_applied_at = self.sim.now
        if self.profile.sync_model == DataPlaneSyncModel.IMMEDIATE:
            self._apply_operation(operation)
        else:
            self._pending_ops.append(operation)
            if self._sync_parked is not None:
                self._wake_sync()

    def _apply_operation(self, operation: PendingOperation) -> None:
        if self.crashed:
            # A sync loop woke up with an operation popped before the crash;
            # the data plane of a dead switch must stay wiped.
            return
        self._apply_to_dataplane(operation.flowmod, self.sim.now)
        operation.applied = True
        operation.applied_at = self.sim.now
        self._check_barrier_waiters(operation)

    # -- barriers ---------------------------------------------------------------------
    def _handle_barrier(self, request: BarrierRequest, epoch: int):
        yield self.profile.trivial_processing_time
        if self.crashed or self.crash_epoch != epoch:
            return
        self._barrier_epoch += 1
        if (self.profile.barrier_mode == BarrierMode.CONTROL_PLANE
                or not self._pending_ops):
            self._send_barrier_reply(request)
            return
        waiter = _BarrierWaiter(request, set(self._pending_ops))
        self._barrier_waiters.append(waiter)

    def _send_barrier_reply(self, request: BarrierRequest) -> None:
        self.barrier_reply_log.append((self.sim.now, request.xid))
        tr = self.sim.tracer
        if tr is not None:
            tr.rule(PHASE_ACK_SENT, self.sim.now, self.name, request.xid,
                    detail="barrier-reply")
        self._send(BarrierReply(xid=request.xid))

    # -- PacketOut / PacketIn -------------------------------------------------------------
    def _handle_packet_out(self, message: PacketOut, epoch: int):
        yield self.profile.packet_out_processing_time
        if self.crashed or self.crash_epoch != epoch:
            return
        self.packet_outs_processed += 1
        # Enforce the hardware PacketOut rate cap on the egress side.
        spacing = 1.0 / self.profile.packet_out_rate
        emit_at = max(self.sim.now, self._next_packet_out_time)
        self._next_packet_out_time = emit_at + spacing
        delay = emit_at - self.sim.now
        self.sim.schedule_callback(
            delay, self._inject_packet, message.packet, message.actions, message.in_port
        )

    def send_packet_in(self, packet_in_factory: Callable[[], OFMessage]) -> None:
        """Rate-limit and send a PacketIn built by ``packet_in_factory``.

        Called from the data-plane path; charges the (small) encapsulation
        cost to the control-plane CPU as stolen time.
        """
        spacing = 1.0 / self.profile.packet_in_rate
        emit_at = max(self.sim.now, self._next_packet_in_time)
        self._next_packet_in_time = emit_at + spacing
        self._stolen_time += self.profile.packet_in_processing_time
        self.packet_ins_sent += 1
        self.sim.schedule_callback(emit_at - self.sim.now, lambda: self._send(packet_in_factory()))

    # -- statistics ---------------------------------------------------------------------------
    def _handle_stats(self, request: StatsRequest, epoch: int):
        yield self.profile.trivial_processing_time
        if self.crashed or self.crash_epoch != epoch:
            return
        if request.stats_type == StatsType.FLOW:
            body = [
                {
                    "priority": entry.priority,
                    "match": repr(entry.match),
                    "packets": entry.packet_count,
                    "bytes": entry.byte_count,
                }
                for entry in self.table
                if request.match.is_match_all or request.match.covers(entry.match)
            ]
        elif request.stats_type == StatsType.TABLE:
            body = [{"table": self.table.name, "active": len(self.table)}]
        elif request.stats_type == StatsType.AGGREGATE:
            body = [{
                "flows": len(self.table),
                "packets": sum(entry.packet_count for entry in self.table),
            }]
        else:
            body = [{"switch": self.name, "datapath_id": self.datapath_id}]
        self._send(StatsReply(request.stats_type, body=body, xid=request.xid))

    # -- data-plane synchronisation ------------------------------------------------------------
    def _rate_limited_sync_loop(self):
        """RATE_LIMITED model: ops trickle into the data plane at a bounded rate.

        The effective per-rule apply time grows with the number of rules
        already pushed to the data plane (TCAM insertion slows down as the
        table fills), which is what makes the lag between control plane and
        data plane grow over a long burst of modifications.

        The agent looks for work every quarter apply slot; an idle loop
        parks instead of spending kernel events on that poll, and
        :meth:`_wake_sync` resumes it on the tick the poll would have hit.
        """
        base_spacing = 1.0 / self.profile.dataplane_apply_rate
        applied = 0
        while True:
            if not self._pending_ops:
                wake = self.sim.event()
                self._sync_parked = (self.sim.now, base_spacing / 4, wake)
                yield wake
                continue
            if self.profile.reorders_across_barriers and len(self._pending_ops) > 1:
                index = self.rng.randint(0, len(self._pending_ops) - 1)
                operation = self._pending_ops[index]
                del self._pending_ops[index]
            else:
                operation = self._pending_ops.popleft()
            spacing = base_spacing * (
                1.0 + self.profile.dataplane_occupancy_slowdown * applied
            )
            earliest = operation.control_applied_at + self.profile.dataplane_extra_latency
            epoch = self.crash_epoch
            wait = max(spacing, earliest - self.sim.now)
            yield wait
            if self.crash_epoch != epoch:
                continue  # the popped operation died with the switch
            self._apply_operation(operation)
            applied += 1

    def _wake_sync(self) -> None:
        """Resume the parked sync loop on its next poll tick.

        Polling every ``q`` from the parking time ``T`` wakes at ``T + q``,
        ``(T + q) + q``, ... — one float add each, the kernel's
        ``now + delay`` — so the first tick not before ``now`` is rebuilt
        with the same adds and scheduled at exactly that float (apply times
        enter the run digests).  A crash that empties the queue before the
        tick parks the loop again *from the tick*, which keeps the grid.
        One tie differs from polling: a FlowMod completing float-exactly on
        a tick is applied from that tick, where a poll that ran first would
        have left it for the next — unreachable in practice (completions are
        jittered), like the train tie :mod:`repro.net.link` documents.
        """
        tick, quantum, wake = self._sync_parked
        self._sync_parked = None
        tick += quantum
        now = self.sim.now
        while tick < now:
            tick += quantum
        self.sim.schedule_at(tick, wake.succeed)
