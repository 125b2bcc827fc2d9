"""Attachment machinery: how armed fault models hook into a built network.

One harness per (switch, layer):

* :class:`DataPlaneFaultHarness` redirects a switch's control→data plane
  hook through a chain of :class:`~repro.faults.base.DataPlaneFault`
  models.
* :class:`ControlChannelHarness` installs an interceptor on the switch's
  control :class:`~repro.openflow.connection.Connection` and offers the
  faults a :class:`ChannelHook` to forward, delay or fabricate messages.

Lifecycle faults need no harness — they schedule timed actions directly
against the :class:`~repro.switches.base.Switch`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from repro.faults.base import ControlChannelFault, DataPlaneFault
from repro.openflow.connection import Connection
from repro.openflow.messages import FlowMod, OFMessage

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.switches.base import Switch

#: Connection side bound to the switch agent (messages *from* this side are
#: switch→controller: barrier replies, PacketIns, errors).
SWITCH_SIDE = 0
#: Connection side a controller or RUM proxy claims (messages *from* this
#: side are controller→switch: FlowMods, barrier requests, PacketOuts).
CONTROLLER_SIDE = 1


class DataPlaneFaultHarness:
    """Installs data-plane faults at a switch's control→data plane boundary."""

    def __init__(self, switch: "Switch", faults: List[DataPlaneFault]) -> None:
        self.switch = switch
        self.faults = list(faults)
        # Capture whatever hook is installed *now* — the raw data-plane
        # apply, or another harness (fig2's firewall fault): harnesses
        # chain instead of silently disabling each other.
        self._original_apply = switch.controlplane._apply_to_dataplane
        switch.controlplane._apply_to_dataplane = self._apply_with_faults

    def _apply_with_faults(self, flowmod: FlowMod, now: float) -> None:
        original_apply = self._original_apply
        switch = self.switch
        epoch = switch.crash_epoch

        def apply_unless_crash_intervened(flowmod: FlowMod, now: float) -> None:
            # Fault callbacks (a delay spike firing, a reorder buffer
            # flushing) outlive the moment they intercepted; if the switch
            # crashed since — even if it has already restarted — the pending
            # modification died with it and must not reach the wiped table.
            if switch.crashed or switch.crash_epoch != epoch:
                return
            original_apply(flowmod, now)

        for fault in self.faults:
            if fault.intercept(flowmod, apply_unless_crash_intervened):
                return
        original_apply(flowmod, now)

    def remove(self) -> None:
        """Restore the unfaulted behaviour."""
        self.switch.controlplane._apply_to_dataplane = self._original_apply


class ChannelHook:
    """What a control-channel fault may do with a message it intercepted.

    ``forward`` hands the message to the *next* fault of the harness chain —
    not to the wire — so ``+``-composed faults all see it (jitter delaying a
    barrier reply does not shield it from a later ack-loss).  Fabricated
    messages (premature acks, duplicates) enter the chain at the same point.
    Only past the last fault does anything actually get scheduled, with the
    extra latencies accumulated along the way; per-direction delivery stays
    FIFO (extra latency inflates the lag but cannot make a message overtake
    one sent earlier — TCP semantics).
    """

    def __init__(self, harness: "ControlChannelHarness", next_index: int,
                 extra_latency: float = 0.0) -> None:
        self.harness = harness
        self.sim = harness.connection.sim
        self._next_index = next_index
        self._extra_latency = extra_latency

    def forward(self, from_side: int, message: OFMessage,
                extra_latency: float = 0.0) -> None:
        """Pass ``message`` on, optionally adding ``extra_latency``."""
        if not extra_latency >= 0:  # the channel pushes its delivery unchecked
            raise ValueError(f"extra latency must be >= 0, not {extra_latency}")
        self.harness._deliver_from(self._next_index, from_side, message,
                                   self._extra_latency + extra_latency)

    def send_to_controller(self, message: OFMessage) -> None:
        """Fabricate a message as if the switch had sent it (premature acks)."""
        self.harness._deliver_from(self._next_index, SWITCH_SIDE, message,
                                   self._extra_latency)

    def send_to_switch(self, message: OFMessage) -> None:
        """Fabricate a message towards the switch agent."""
        self.harness._deliver_from(self._next_index, CONTROLLER_SIDE, message,
                                   self._extra_latency)


class ControlChannelHarness:
    """Installs control-channel faults as a connection interceptor chain."""

    def __init__(self, connection: Connection,
                 faults: List[ControlChannelFault]) -> None:
        self.connection = connection
        self.faults = list(faults)
        connection.install_intercept(self._intercept)

    def _intercept(self, from_side: int, message: OFMessage) -> bool:
        self._deliver_from(0, from_side, message, 0.0)
        # The harness always takes over delivery: a message no fault touched
        # reaches the wire through the chain tail with zero extra latency,
        # identical to normal delivery.
        return True

    def _deliver_from(self, index: int, from_side: int, message: OFMessage,
                      extra_latency: float) -> None:
        """Run ``message`` through ``faults[index:]``, then hit the wire."""
        while index < len(self.faults):
            fault = self.faults[index]
            index += 1
            if fault.on_transmit(ChannelHook(self, index, extra_latency),
                                 from_side, message):
                return  # dropped, or re-entered the chain via the hook
        self.connection._schedule_delivery(from_side, message, extra_latency)

    def remove(self) -> None:
        """Restore the lossless, fixed-latency channel."""
        self.connection.remove_intercept()
