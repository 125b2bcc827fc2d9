"""The switch control plane: the OpenFlow agent.

The control plane consumes messages from the controller connection in FIFO
order, spends model-defined CPU time on each, updates its *own* flow table
immediately, and hands rule modifications to the data-plane synchronisation
machinery defined by the switch profile.  Depending on the profile it answers
barriers either when the control plane has caught up (buggy, observed on
hardware) or when the data plane has (correct).

The agent and the RATE_LIMITED sync are callback chains on the kernel, not
generator processes (which paid ~25 frames of queue, event and process
plumbing per message).  A message costs the heap entries the generators
made, at the same times with the same sequence numbers: the zero-delay
hand-off to :meth:`ControlPlane._begin` (from :meth:`ControlPlane.receive`
when the agent is idle, else from :meth:`ControlPlane._next_message`), the
CPU time PacketIns stole since the last message if any, and the processing
delay that ends in the message kind's ``_finish_*``.  The hand-off does no
work and is kept on purpose: dropping it would reorder same-instant events,
and run digests depend on that order.  The generator agent lives on in
``tests/oracles/generator_agent.py`` as the oracle for the exact stream.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.openflow.constants import StatsType
from repro.openflow.flowtable import FlowTable, TableFullError
from repro.openflow.messages import (
    BarrierReply,
    BarrierRequest,
    EchoReply,
    EchoRequest,
    ErrorMessage,
    FeaturesReply,
    FeaturesRequest,
    FlowMod,
    OFMessage,
    PacketOut,
    StatsReply,
    StatsRequest,
)
from repro.obs.events import (
    PHASE_ACK_SENT,
    PHASE_CONTROL_APPLIED,
    PHASE_SWITCH_RECEIVED,
)
from repro.openflow.constants import OFErrorCode, OFErrorType
from repro.packet.packet import Packet
from repro.sim.kernel import Simulator
from repro.sim.rng import SeededRandom
from repro.switches.profiles import BarrierMode, DataPlaneSyncModel, SwitchProfile


class PendingOperation:
    """A rule modification accepted by the control plane but not yet visible
    in the data plane."""

    __slots__ = (
        "flowmod",
        "received_at",
        "control_applied_at",
        "barrier_epoch",
        "applied",
        "applied_at",
    )

    def __init__(self, flowmod: FlowMod, received_at: float, barrier_epoch: int) -> None:
        self.flowmod = flowmod
        self.received_at = received_at
        self.control_applied_at: Optional[float] = None
        self.barrier_epoch = barrier_epoch
        self.applied = False
        self.applied_at: Optional[float] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        state = "applied" if self.applied else "pending"
        return f"<PendingOp xid={self.flowmod.xid} {state}>"


class _BarrierWaiter:
    """A barrier whose reply waits for the data plane to apply the pending
    operations in ``waiting_for`` (never iterated, so identity hashing is safe)."""

    __slots__ = ("request", "waiting_for")

    def __init__(self, request: BarrierRequest, waiting_for: set) -> None:
        self.request = request
        self.waiting_for = waiting_for


class ControlPlane:
    """OpenFlow agent of one switch.

    One message is in the agent's hands at a time; the rest wait in a plain
    ``deque``.  Each kernel callback of the chain reads the clock once and
    carries what the next one needs (the message and the crash epoch it was
    taken under) as callback arguments, so a crash never has to hunt for
    in-flight work: a ``_finish_*`` that wakes up under another epoch drops
    its message.

    Parameters
    ----------
    sim:
        The simulation kernel.
    profile:
        Behavioural calibration (:class:`SwitchProfile`).
    send_to_controller:
        Callback used to emit messages on the controller connection.
    apply_to_dataplane:
        Callback ``(flowmod, now) -> None`` that makes a rule visible to
        packets.
    inject_packet:
        Callback ``(packet, actions, in_port) -> None`` implementing
        PacketOut semantics on the data plane / ports.
    rng:
        Seeded randomness source for jitter and reordering.
    dataplane_table:
        The table packets hit; flow statistics report its counters.
    """

    def __init__(
        self,
        sim: Simulator,
        profile: SwitchProfile,
        send_to_controller: Callable[[OFMessage], None],
        apply_to_dataplane: Callable[[FlowMod, float], None],
        inject_packet: Callable[[Packet, list, int], None],
        rng: Optional[SeededRandom] = None,
        datapath_id: int = 1,
        ports: Optional[List[int]] = None,
        name: str = "switch",
        dataplane_table: Optional[FlowTable] = None,
    ) -> None:
        profile.validate()
        self.sim = sim
        self.profile = profile
        self.name = name
        self.datapath_id = datapath_id
        self.ports = list(ports or [])
        self._send = send_to_controller
        self._apply_to_dataplane = apply_to_dataplane
        self._inject_packet = inject_packet
        self.rng = rng or SeededRandom(datapath_id)
        self._dataplane_table = dataplane_table

        #: Control-plane view of the flow table (always up to date with
        #: processed FlowMods; may be *ahead* of the data plane).
        self.table = FlowTable(mode=profile.table_mode, capacity=profile.table_capacity,
                               name=f"{name}.control")

        #: Messages waiting for the agent, oldest first.
        self._inbox: Deque[OFMessage] = deque()
        #: Whether the agent is waiting for a message (nothing in its hands,
        #: nothing queued): the next arrival is handed to it directly.
        self._idle = False
        self._pending_ops: Deque[PendingOperation] = deque()
        #: ``(parked at, poll quantum)`` while the rate-limited sync is idle
        #: (see :meth:`_sync_step`).
        self._sync_parked: Optional[Tuple[float, float]] = None
        #: Operations the rate-limited sync pushed into the data plane.
        self._sync_applied = 0
        self._barrier_waiters: List[_BarrierWaiter] = []
        self._barrier_epoch = 0
        self._stolen_time = 0.0
        self._next_packet_out_time = 0.0
        self._next_packet_in_time = 0.0

        # Measurement hooks ---------------------------------------------------
        #: ``flowmod xid -> control-plane apply time``.
        self.control_apply_log: Dict[int, float] = {}
        #: ``(time, barrier xid)`` for every barrier reply sent.
        self.barrier_reply_log: List[Tuple[float, int]] = []
        self.flowmods_processed = 0
        self.packet_outs_processed = 0
        self.packet_ins_sent = 0
        #: FlowMod xids applied since the last (re)boot: controller-side
        #: retransmissions of an un-acked FlowMod are idempotent within one
        #: boot, but a retransmit arriving after a crash-wipe must apply —
        #: the rule is gone — so the set is cleared by :meth:`crash_reset`
        #: (*not* :attr:`control_apply_log`, which deliberately survives
        #: crashes for measurement).
        self._applied_xids: set = set()
        self.duplicate_flowmods = 0

        self._started = False
        #: Set while the switch is crashed (lifecycle faults): inbound
        #: messages are lost and queued ones are discarded unprocessed.
        self.crashed = False
        #: Bumped on every crash; a message taken off the inbox before a
        #: crash must not take effect after it, even once the switch has
        #: restarted.
        self.crash_epoch = 0

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> None:
        """Start the agent and the data-plane sync."""
        if self._started:
            return
        self._started = True
        self.sim.schedule_callback(0.0, self._next_message)
        if self.profile.sync_model == DataPlaneSyncModel.RATE_LIMITED:
            self.sim.schedule_callback(0.0, self._sync_step)

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
        if self._idle:
            # Handed over on the next kernel step, not from inside the
            # sender's callback.
            self._idle = False
            self.sim.schedule_callback(0.0, self._begin, message)
        else:
            self._inbox.append(message)

    def crash_reset(self, wipe_table: bool = True) -> None:
        """Drop all in-flight state on a switch crash (lifecycle faults)."""
        self.crashed = True
        self.crash_epoch += 1
        self._inbox.clear()
        self._pending_ops.clear()
        self._barrier_waiters.clear()
        self._stolen_time = 0.0
        self._applied_xids.clear()
        if wipe_table:
            self.table.clear()

    def restore(self) -> None:
        """Accept control-channel traffic again after a restart."""
        self.crashed = False

    def close(self) -> None:
        """Forget the owning switch's callbacks (the agent's only references
        back into it); tables, logs and counters stay readable."""
        self._send = self._apply_to_dataplane = self._inject_packet = None

    # -- properties ------------------------------------------------------------
    @property
    def pending_dataplane_ops(self) -> int:
        """Number of modifications not yet visible in the data plane."""
        return len(self._pending_ops)

    # -- the agent: one message at a time ------------------------------------------
    def _next_message(self) -> None:
        """Take the oldest queued message, or wait for :meth:`receive`."""
        if self._inbox:
            self.sim.schedule_callback(0.0, self._begin, self._inbox.popleft())
        else:
            self._idle = True

    def _begin(self, message: OFMessage) -> None:
        """The hand-off: ``message`` is now in the agent's hands."""
        if self.crashed:
            # Messages queued before the crash die with the agent.
            self._next_message()
            return
        epoch = self.crash_epoch
        # Time stolen by PacketIn encapsulation since the last message is
        # charged here, serialising it with FlowMod processing the way a
        # single management CPU would.
        if self._stolen_time > 0:
            stolen, self._stolen_time = self._stolen_time, 0.0
            self.sim.schedule_callback(stolen, self._dispatch, message, epoch)
        else:
            self._dispatch(message, epoch)

    def _dispatch(self, message: OFMessage, epoch: int) -> None:
        """Spend the message's processing time, then run its ``_finish_*``."""
        profile = self.profile
        delay = profile.trivial_processing_time
        if isinstance(message, FlowMod):
            finish = self._finish_flowmod
            delay = self.rng.jitter(
                profile.flowmod_processing_time(len(self.table)), profile.flowmod_jitter)
        elif isinstance(message, BarrierRequest):
            finish = self._finish_barrier
        elif isinstance(message, PacketOut):
            finish, delay = self._finish_packet_out, profile.packet_out_processing_time
        elif isinstance(message, StatsRequest):
            finish = self._finish_stats
        else:
            finish = self._finish_other
        self.sim.schedule_callback(delay, finish, message, epoch)

    def _finish_other(self, message: OFMessage, epoch: int) -> None:
        # Hello and unknown messages only consume their trivial time, as a
        # real agent would for unsupported-but-harmless messages.
        if isinstance(message, EchoRequest):
            self._send(EchoReply(payload=message.payload, xid=message.xid))
        elif isinstance(message, FeaturesRequest):
            self._send(FeaturesReply(self.datapath_id, self.ports, xid=message.xid))
        self._next_message()

    # -- FlowMod ---------------------------------------------------------------------
    def _finish_flowmod(self, flowmod: FlowMod, epoch: int) -> None:
        # A crash since the message was taken (even if the agent restarted
        # since) lost the modification: it must not touch the wiped tables.
        if not self.crashed and self.crash_epoch == epoch:
            self._apply_flowmod(flowmod, self.sim.now)
        self._next_message()

    def _apply_flowmod(self, flowmod: FlowMod, now: float) -> None:
        xid = flowmod.xid
        if xid in self._applied_xids:
            # A controller-side retransmission of a FlowMod this boot already
            # applied: drop it (same-xid delivery is exactly-once per boot).
            self.duplicate_flowmods += 1
            return
        try:
            self.table.apply_flowmod(flowmod, now=now)
        except TableFullError:
            self._send(ErrorMessage(OFErrorType.FLOW_MOD_FAILED,
                                    int(OFErrorCode.ALL_TABLES_FULL), data=xid,
                                    xid=xid))
            return
        self._applied_xids.add(xid)
        self.flowmods_processed += 1
        self.control_apply_log[xid] = now
        tr = self.sim.tracer
        if tr is not None:
            tr.rule(PHASE_CONTROL_APPLIED, now, self.name, xid)

        operation = PendingOperation(flowmod, received_at=now,
                                     barrier_epoch=self._barrier_epoch)
        operation.control_applied_at = now
        if self.profile.sync_model == DataPlaneSyncModel.IMMEDIATE:
            self._apply_operation(operation)
        else:
            self._pending_ops.append(operation)
            if self._sync_parked is not None:
                self._wake_sync(now)

    def _apply_operation(self, operation: PendingOperation) -> None:
        if self.crashed:
            # A sync step woke up with an operation popped before the crash;
            # the data plane of a dead switch must stay wiped.
            return
        now = self.sim.now
        self._apply_to_dataplane(operation.flowmod, now)
        operation.applied = True
        operation.applied_at = now
        self._check_barrier_waiters(operation)

    # -- barriers ---------------------------------------------------------------------
    def _finish_barrier(self, request: BarrierRequest, epoch: int) -> None:
        if not self.crashed and self.crash_epoch == epoch:
            self._barrier_epoch += 1
            if (self.profile.barrier_mode == BarrierMode.CONTROL_PLANE
                    or not self._pending_ops):
                self._send_barrier_reply(request)
            else:
                self._barrier_waiters.append(
                    _BarrierWaiter(request, set(self._pending_ops)))
        self._next_message()

    def _send_barrier_reply(self, request: BarrierRequest) -> None:
        now = self.sim.now
        self.barrier_reply_log.append((now, request.xid))
        tr = self.sim.tracer
        if tr is not None:
            tr.rule(PHASE_ACK_SENT, now, self.name, request.xid,
                    detail="barrier-reply")
        self._send(BarrierReply(xid=request.xid))

    def _check_barrier_waiters(self, operation: PendingOperation) -> None:
        finished: List[_BarrierWaiter] = []
        for waiter in self._barrier_waiters:
            waiter.waiting_for.discard(operation)
            if not waiter.waiting_for:
                finished.append(waiter)
        if finished:
            self._barrier_waiters = [w for w in self._barrier_waiters if w.waiting_for]
            for waiter in finished:
                self._send_barrier_reply(waiter.request)

    # -- PacketOut / PacketIn -------------------------------------------------------------
    def _finish_packet_out(self, message: PacketOut, epoch: int) -> None:
        if not self.crashed and self.crash_epoch == epoch:
            self.packet_outs_processed += 1
            # Enforce the hardware PacketOut rate cap on the egress side.
            now = self.sim.now
            emit_at = max(now, self._next_packet_out_time)
            self._next_packet_out_time = emit_at + 1.0 / self.profile.packet_out_rate
            self.sim.schedule_callback(
                emit_at - now, self._inject_packet,
                message.packet, message.actions, message.in_port,
            )
        self._next_message()

    def send_packet_in(self, packet_in_factory: Callable[[], OFMessage]) -> None:
        """Rate-limit and send a PacketIn built by ``packet_in_factory``.

        Called from the data-plane path; charges the (small) encapsulation
        cost to the control-plane CPU as stolen time.
        """
        now = self.sim.now
        emit_at = max(now, self._next_packet_in_time)
        self._next_packet_in_time = emit_at + 1.0 / self.profile.packet_in_rate
        self._stolen_time += self.profile.packet_in_processing_time
        self.packet_ins_sent += 1
        self.sim.schedule_callback(emit_at - now, lambda: self._send(packet_in_factory()))

    # -- statistics ---------------------------------------------------------------------------
    def _finish_stats(self, request: StatsRequest, epoch: int) -> None:
        if not self.crashed and self.crash_epoch == epoch:
            self._send(StatsReply(request.stats_type, body=self._stats_body(request),
                                  xid=request.xid))
        self._next_message()

    def _stats_body(self, request: StatsRequest) -> List[dict]:
        if request.stats_type == StatsType.TABLE:
            return [{"table": self.table.name, "active": len(self.table)}]
        if request.stats_type not in (StatsType.FLOW, StatsType.AGGREGATE):
            return [{"switch": self.name, "datapath_id": self.datapath_id}]
        # Packets only ever hit the data plane: a rule not there yet has
        # forwarded nothing, whatever the control plane believes.
        hardware = {(entry.priority, entry.match): entry
                    for entry in self._dataplane_table or ()}
        body = []
        for entry in self.table:
            if (request.stats_type == StatsType.FLOW and not request.match.is_match_all
                    and not request.match.covers(entry.match)):
                continue
            hit = hardware.get((entry.priority, entry.match))
            body.append({"priority": entry.priority, "match": repr(entry.match),
                         "packets": hit.packet_count if hit else 0,
                         "bytes": hit.byte_count if hit else 0})
        if request.stats_type == StatsType.AGGREGATE:
            return [{"flows": len(body), "packets": sum(flow["packets"] for flow in body)}]
        return body

    # -- data-plane synchronisation ------------------------------------------------------------
    def _sync_step(self) -> None:
        """RATE_LIMITED model: ops trickle into the data plane at a bounded rate.

        The effective per-rule apply time grows with the number of rules
        already pushed to the data plane (TCAM insertion slows down as the
        table fills), which is what makes the lag between control plane and
        data plane grow over a long burst of modifications.

        The agent looks for work every quarter apply slot; an idle sync
        parks instead of spending kernel events on that poll, and
        :meth:`_wake_sync` runs it again on the tick the poll would have hit.
        """
        pending = self._pending_ops
        profile = self.profile
        base_spacing = 1.0 / profile.dataplane_apply_rate
        now = self.sim.now
        if not pending:
            self._sync_parked = (now, base_spacing / 4)
            return
        if profile.reorders_across_barriers and len(pending) > 1:
            index = self.rng.randint(0, len(pending) - 1)
            operation = pending[index]
            del pending[index]
        else:
            operation = pending.popleft()
        spacing = base_spacing * (
            1.0 + profile.dataplane_occupancy_slowdown * self._sync_applied
        )
        earliest = operation.control_applied_at + profile.dataplane_extra_latency
        self.sim.schedule_callback(max(spacing, earliest - now), self._sync_apply,
                                   operation, self.crash_epoch)

    def _sync_apply(self, operation: PendingOperation, epoch: int) -> None:
        # Under another epoch the popped operation died with the switch.
        if self.crash_epoch == epoch:
            self._apply_operation(operation)
            self._sync_applied += 1
        self._sync_step()

    def _wake_sync(self, now: float) -> None:
        """Run the parked sync again on its next poll tick.

        Polling every ``q`` from the parking time ``T`` wakes at ``T + q``,
        ``(T + q) + q``, ... — one float add each, the kernel's
        ``now + delay`` — so the first tick not before ``now`` is rebuilt
        with the same adds and scheduled at exactly that float (apply times
        enter the run digests).  A crash that empties the queue before the
        tick parks the sync again *from the tick*, which keeps the grid.
        One tie differs from polling: a FlowMod completing float-exactly on
        a tick is applied from that tick, where a poll that ran first would
        have left it for the next — unreachable in practice (completions are
        jittered), like the train tie :mod:`repro.net.link` documents.
        """
        tick, quantum = self._sync_parked
        self._sync_parked = None
        tick += quantum
        while tick < now:
            tick += quantum
        self.sim.schedule_at(tick, self._sync_step)
