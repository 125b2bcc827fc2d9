"""The controller base class.

A :class:`Controller` owns one control connection per switch (which may in
fact terminate at the RUM proxy rather than at the switch — the controller
cannot tell, which is the point of RUM's transparency).  It provides:

* fire-and-forget sending of any OpenFlow message,
* :meth:`Controller.send_flowmod` which returns a :class:`RuleAck` the caller
  can wait on; how the ack is resolved depends on the configured
  :class:`AckMode`,
* barrier bookkeeping (:meth:`Controller.send_barrier` returns an event
  completed by the corresponding BarrierReply),
* a PacketIn callback hook for applications.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, List, Optional, Tuple

from repro.openflow.connection import ConnectionEndpoint
from repro.openflow.messages import (
    BarrierReply,
    BarrierRequest,
    ErrorMessage,
    FlowMod,
    OFMessage,
    PacketIn,
    PacketOut,
)
from repro.sim.events import Event
from repro.sim.kernel import Simulator


class AckMode(str, Enum):
    """How the controller decides a rule modification is complete."""

    #: Trust RUM's fine-grained confirmations (repurposed error messages).
    RUM_CONFIRMATION = "rum"
    #: Send a barrier after the FlowMod and trust the switch's BarrierReply.
    BARRIER = "barrier"
    #: Do not wait at all (the "no wait" lower bound in Figure 7).
    NONE = "none"


@dataclass
class RuleAck:
    """Tracking record for one issued FlowMod."""

    switch: str
    xid: int
    flowmod: FlowMod
    sent_at: float
    event: Event
    acked_at: Optional[float] = None
    #: Set when the recovery machinery gives up on this ack (retransmission
    #: attempts exhausted); a failed ack is no longer *pending*.
    failed_at: Optional[float] = None
    #: Transmissions of the FlowMod so far (1 = the original send).
    attempts: int = 1

    @property
    def acked(self) -> bool:
        """Whether the acknowledgment has arrived."""
        return self.acked_at is not None

    @property
    def failed(self) -> bool:
        """Whether the controller gave up waiting for this acknowledgment."""
        return self.failed_at is not None


class Controller:
    """A minimal but complete OpenFlow controller."""

    def __init__(
        self,
        sim: Simulator,
        name: str = "controller",
        ack_mode: AckMode = AckMode.RUM_CONFIRMATION,
    ) -> None:
        self.sim = sim
        self.name = name
        self.ack_mode = AckMode(ack_mode)

        self._endpoints: Dict[str, ConnectionEndpoint] = {}
        #: Outstanding rule acks by (switch, xid).
        self._rule_acks: Dict[Tuple[str, int], RuleAck] = {}
        #: Outstanding barrier events by (switch, barrier xid).
        self._barrier_events: Dict[Tuple[str, int], Event] = {}
        #: FlowMod xids covered by each outstanding barrier, for BARRIER mode.
        self._barrier_coverage: Dict[Tuple[str, int], List[int]] = {}
        #: xids sent since the last barrier, per switch (BARRIER mode).
        self._unbarriered: Dict[str, List[int]] = {}

        #: Application callbacks.
        self.packet_in_handlers: List[Callable[[str, PacketIn], None]] = []
        self.error_handlers: List[Callable[[str, ErrorMessage], None]] = []
        #: Callbacks fired when a crashed switch reconnects (see
        #: :meth:`on_switch_reconnect`).
        self.reconnect_handlers: List[Callable[[str], None]] = []
        #: The recovery manager, when the session armed one (see
        #: :mod:`repro.recovery`).  ``None`` keeps every path below on the
        #: exact pre-recovery event sequence.
        self.recovery = None

    # -- wiring ---------------------------------------------------------------
    def connect_switch(self, switch_name: str, endpoint: ConnectionEndpoint) -> None:
        """Attach the controller to (what it believes is) a switch connection."""
        if switch_name in self._endpoints:
            raise ValueError(f"switch {switch_name!r} already connected")
        self._endpoints[switch_name] = endpoint
        self._unbarriered[switch_name] = []
        endpoint.on_message(lambda message: self._on_message(switch_name, message))

    def switches(self) -> List[str]:
        """Names of connected switches."""
        return list(self._endpoints)

    # -- sending ------------------------------------------------------------------
    def send(self, switch_name: str, message: OFMessage) -> None:
        """Send a raw message to a switch."""
        self._endpoints[switch_name].send(message)

    def send_flowmod(self, switch_name: str, flowmod: FlowMod) -> RuleAck:
        """Send a FlowMod and return its acknowledgment tracking record.

        In :data:`AckMode.NONE` the returned ack completes immediately.  In
        :data:`AckMode.BARRIER` the ack completes when a *later* barrier on
        the same switch is answered (callers typically use
        :meth:`send_barrier` right after a batch).  In
        :data:`AckMode.RUM_CONFIRMATION` it completes when RUM's fine-grained
        confirmation for this xid arrives.
        """
        event = self.sim.event(name=f"ack-{switch_name}-{flowmod.xid}")
        ack = RuleAck(
            switch=switch_name,
            xid=flowmod.xid,
            flowmod=flowmod,
            sent_at=self.sim.now,
            event=event,
        )
        self._rule_acks[(switch_name, flowmod.xid)] = ack
        if self.recovery is not None:
            # Shadow the intended rule and arm the retransmit timer *before*
            # sending: an AckMode.NONE send completes synchronously and the
            # recovery bookkeeping must already know about the ack by then.
            self.recovery.flowmod_sent(ack)
        self.send(switch_name, flowmod)
        if self.ack_mode == AckMode.NONE:
            self._complete_ack(ack)
        elif self.ack_mode == AckMode.BARRIER:
            self._unbarriered[switch_name].append(flowmod.xid)
        return ack

    def retransmit(self, ack: RuleAck) -> None:
        """Re-send an un-acked FlowMod with its original xid.

        The original :class:`RuleAck` (and its event, which the
        :class:`~repro.controller.update_plan.PlanExecutor` waits on) stays
        the tracking record; the switch's per-boot xid de-duplication makes
        a duplicate delivery harmless.  In barrier mode the xid re-enters
        barrier coverage and a fresh barrier resolves it.
        """
        if ack.acked or ack.failed:
            return
        ack.attempts += 1
        self.send(ack.switch, ack.flowmod)
        if self.ack_mode == AckMode.BARRIER:
            self._unbarriered[ack.switch].append(ack.xid)
            self.send_barrier(ack.switch)

    def fail_ack(self, ack: RuleAck) -> None:
        """Give up on an un-acked FlowMod: mark it failed, not pending.

        The ack's event stays un-triggered — the operation genuinely never
        completed — but :meth:`ack_failed` reports it, and executors report
        it via ``PlanExecutor.summary()``.
        """
        if ack.acked or ack.failed:
            return
        ack.failed_at = self.sim.now

    def forget_acks(self) -> None:
        """Drop every ack tracking record (session teardown): a still-pending
        one holds its waiter's callback, and the waiter holds the controller."""
        self._rule_acks.clear()

    def send_barrier(self, switch_name: str) -> Event:
        """Send a BarrierRequest; the returned event completes on its reply."""
        request = BarrierRequest()
        event = self.sim.event(name=f"barrier-{switch_name}-{request.xid}")
        self._barrier_events[(switch_name, request.xid)] = event
        if self.ack_mode == AckMode.BARRIER:
            covered, self._unbarriered[switch_name] = self._unbarriered[switch_name], []
            self._barrier_coverage[(switch_name, request.xid)] = covered
        self.send(switch_name, request)
        return event

    def send_packet_out(self, switch_name: str, packet_out: PacketOut) -> None:
        """Inject a data-plane packet through a switch."""
        self.send(switch_name, packet_out)

    # -- receiving -----------------------------------------------------------------
    def _on_message(self, switch_name: str, message: OFMessage) -> None:
        if isinstance(message, BarrierReply):
            self._handle_barrier_reply(switch_name, message)
        elif isinstance(message, ErrorMessage):
            if message.is_rum_confirmation:
                self._handle_rum_confirmation(switch_name, message)
            for handler in self.error_handlers:
                handler(switch_name, message)
        elif isinstance(message, PacketIn):
            for handler in self.packet_in_handlers:
                handler(switch_name, message)
        # Other messages (stats replies, echo replies, features) are ignored
        # by the base controller; applications can subclass if they need them.

    def _handle_barrier_reply(self, switch_name: str, message: BarrierReply) -> None:
        key = (switch_name, message.xid)
        event = self._barrier_events.pop(key, None)
        if event is not None and not event.triggered:
            event.succeed(self.sim.now)
        for xid in self._barrier_coverage.pop(key, []):
            ack = self._rule_acks.get((switch_name, xid))
            if ack is not None and not ack.acked:
                self._complete_ack(ack)

    def _handle_rum_confirmation(self, switch_name: str, message: ErrorMessage) -> None:
        ack = self._rule_acks.get((switch_name, message.data))
        if ack is not None and not ack.acked:
            self._complete_ack(ack)

    def _complete_ack(self, ack: RuleAck) -> None:
        ack.acked_at = self.sim.now
        if not ack.event.triggered:
            ack.event.succeed(self.sim.now)
        if self.recovery is not None:
            self.recovery.flowmod_acked(ack)

    # -- recovery --------------------------------------------------------------
    def on_switch_reconnect(self, switch_name: str) -> None:
        """A crashed switch came back up (``Switch.restore`` lifecycle hook).

        Application callbacks run first — infrastructure state (e.g. RUM's
        probe-catch rules) must be back before the recovery manager replays
        shadowed rules, whose acknowledgments may depend on it.
        """
        for handler in self.reconnect_handlers:
            handler(switch_name)
        if self.recovery is not None:
            self.recovery.on_switch_reconnect(switch_name)

    # -- introspection ---------------------------------------------------------------
    def ack_failed(self, switch_name: str, xid: int) -> bool:
        """Whether the FlowMod with ``xid`` was abandoned (see :meth:`fail_ack`)."""
        ack = self._rule_acks.get((switch_name, xid))
        return ack is not None and ack.failed

    def on_packet_in(self, handler: Callable[[str, PacketIn], None]) -> None:
        """Register a PacketIn application callback."""
        self.packet_in_handlers.append(handler)
