"""The reliable barrier layer (Section 2, "Providing reliable barriers").

A proxy stacked *above* the acknowledgment layer that restores the barrier
semantics unmodified controllers expect:

* when the controller sends a BarrierRequest, the layer remembers every
  FlowMod the controller sent before it that is still unconfirmed;
* the switch's BarrierReply is intercepted and withheld until all of those
  FlowMods have been confirmed by the acknowledgment layer below (the layer
  learns about confirmations by watching RUM's fine-grained acknowledgments
  travel upstream through it);
* optionally (for switches that reorder modifications across barriers) every
  command the controller sends after an unconfirmed barrier is buffered and
  only released to the switch once that barrier has been resolved, which
  restores ordering at the cost of serialising the update.

Because the layer speaks only standard OpenFlow to the controller it is fully
transparent; RUM-aware controllers simply never send barriers and use the
fine-grained acknowledgments directly.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Set

from repro.core.proxy import ProxyLayer
from repro.openflow.messages import (
    BarrierReply,
    BarrierRequest,
    ErrorMessage,
    FlowMod,
    OFMessage,
)
from repro.sim.kernel import Simulator


@dataclass
class _PendingBarrier:
    """A controller barrier whose reply is being withheld."""

    request_xid: int
    #: FlowMod xids that must be confirmed before the reply may be released.
    waiting_for: Set[int]
    #: Whether the switch's own reply has already arrived.
    reply_received: bool = False


class ReliableBarrierLayer(ProxyLayer):
    """Makes BarrierReply trustworthy for unmodified controllers."""

    def __init__(
        self,
        sim: Simulator,
        name: str = "barrier-layer",
        latency: float = 0.0002,
        buffer_after_barrier: bool = False,
        forward_confirmations: bool = True,
    ) -> None:
        super().__init__(sim, name=name, latency=latency)
        #: Buffer commands sent after an unconfirmed barrier (needed for
        #: switches that reorder modifications across barriers).
        self.buffer_after_barrier = buffer_after_barrier
        #: Whether RUM's fine-grained confirmations should still be passed to
        #: the controller (RUM-aware) or filtered out (fully transparent).
        self.forward_confirmations = forward_confirmations

        self._unconfirmed_flowmods: Dict[str, Set[int]] = {}
        self._barriers: Dict[str, List[_PendingBarrier]] = {}
        self._buffered: Dict[str, Deque[OFMessage]] = {}
        self.barriers_held = 0

    # -- wiring ----------------------------------------------------------------
    def attach_switch(self, switch_name: str, downstream) -> None:
        super().attach_switch(switch_name, downstream)
        self._unconfirmed_flowmods[switch_name] = set()
        self._barriers[switch_name] = []
        self._buffered[switch_name] = deque()

    # -- controller -> switch -------------------------------------------------------
    def handle_from_controller(self, switch_name: str, message: OFMessage) -> None:
        if self.buffer_after_barrier and self._has_unresolved_barrier(switch_name):
            self._buffered[switch_name].append(message)
            return
        self._forward_controller_message(switch_name, message)

    def _forward_controller_message(self, switch_name: str, message: OFMessage) -> None:
        if isinstance(message, FlowMod):
            self._unconfirmed_flowmods[switch_name].add(message.xid)
            self.forward_to_switch(switch_name, message)
            return
        if isinstance(message, BarrierRequest):
            barrier = _PendingBarrier(
                request_xid=message.xid,
                waiting_for=set(self._unconfirmed_flowmods[switch_name]),
            )
            self._barriers[switch_name].append(barrier)
            self.barriers_held += 1
            self.forward_to_switch(switch_name, message)
            # A barrier with nothing outstanding may already be releasable
            # once its reply arrives; nothing more to do here.
            return
        self.forward_to_switch(switch_name, message)

    def _has_unresolved_barrier(self, switch_name: str) -> bool:
        # A barrier leaves the list the moment it is released.
        return bool(self._barriers[switch_name])

    # -- switch -> controller ----------------------------------------------------------
    def handle_from_switch(self, switch_name: str, message: OFMessage) -> None:
        if isinstance(message, ErrorMessage) and message.is_rum_confirmation:
            self._on_confirmation(switch_name, message.data)
            if self.forward_confirmations:
                self.forward_to_controller(switch_name, message)
            return
        if isinstance(message, BarrierReply):
            barrier = self._find_barrier(switch_name, message.xid)
            if barrier is not None:
                barrier.reply_received = True
                self._try_release(switch_name)
                return
        self.forward_to_controller(switch_name, message)

    def _find_barrier(self, switch_name: str, xid: int) -> Optional[_PendingBarrier]:
        for barrier in self._barriers[switch_name]:
            if barrier.request_xid == xid:
                return barrier
        return None

    def _on_confirmation(self, switch_name: str, flowmod_xid: int) -> None:
        self._unconfirmed_flowmods[switch_name].discard(flowmod_xid)
        for barrier in self._barriers[switch_name]:
            barrier.waiting_for.discard(flowmod_xid)
        self._try_release(switch_name)

    def _try_release(self, switch_name: str) -> None:
        """Release (in order) every leading barrier that is fully resolved.

        Forwarding the reply cannot re-enter here before the barrier is
        popped: a channel send only schedules its delivery.
        """
        barriers = self._barriers[switch_name]
        while barriers:
            barrier = barriers[0]
            if barrier.waiting_for or not barrier.reply_received:
                break
            self.forward_to_controller(switch_name, BarrierReply(xid=barrier.request_xid))
            barriers.pop(0)
        if not self._has_unresolved_barrier(switch_name):
            self._drain_buffer(switch_name)

    def _drain_buffer(self, switch_name: str) -> None:
        buffered = self._buffered[switch_name]
        while buffered:
            # Forwarding a buffered BarrierRequest may create a new unresolved
            # barrier, which stops the drain again — exactly the serialising
            # behaviour (and cost) the paper reports for reordering switches.
            message = buffered.popleft()
            self._forward_controller_message(switch_name, message)
            if self.buffer_after_barrier and self._has_unresolved_barrier(switch_name):
                break
