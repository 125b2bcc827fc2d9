"""Control-channel faults: the OpenFlow connection misbehaving.

The paper's premise is that a switch's *acknowledgments* cannot be trusted;
these models create every flavour of that on the wire itself:

* ``ack-loss`` — barrier replies vanish on their way to the controller, so
  techniques that wait for them stall (the update misses its deadline) while
  data-plane confirmation (probing) is unaffected.
* ``ack-duplicate`` — barrier replies arrive more than once; consumers must
  treat acknowledgments as idempotent.
* ``premature-ack`` — the channel answers a barrier request *itself*, before
  the switch has processed anything: the literal "acks arrive before rules
  are active" failure.  The switch's own (late) reply is suppressed so the
  controller sees exactly one — early — acknowledgment.
* ``channel-jitter`` — per-message latency inflation; FIFO ordering is
  preserved (TCP), only the lag varies.
* ``disconnect`` — the connection is down for a window; every message sent
  in either direction during the outage is lost.

All models attach through a
:class:`~repro.faults.harness.ControlChannelHarness` on the switch side of
the control connection — between the switch agent and whatever claimed the
controller side (the real controller or the RUM proxy), which is exactly
where a flaky management network or a buggy agent TCP stack would sit.
"""

from __future__ import annotations

from typing import Set

from repro.faults.base import ControlChannelFault
from repro.faults.harness import CONTROLLER_SIDE, SWITCH_SIDE
from repro.openflow.messages import BarrierReply, BarrierRequest


class AckLossFault(ControlChannelFault):
    """With probability ``probability`` a barrier reply is lost in transit."""

    name = "ack-loss"
    param_defaults = {"probability": 0.1}

    def validate(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")

    def on_transmit(self, channel, from_side, message) -> bool:
        if from_side != SWITCH_SIDE or not isinstance(message, BarrierReply):
            return False
        if self.rng.uniform(0.0, 1.0) >= self.probability:
            return False
        self.count("acks_dropped")
        return True


class AckDuplicateFault(ControlChannelFault):
    """With probability ``probability`` a barrier reply is delivered ``copies`` extra times."""

    name = "ack-duplicate"
    param_defaults = {"probability": 0.2, "copies": 1}

    def validate(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        if self.copies < 1:
            raise ValueError("copies must be >= 1")

    def on_transmit(self, channel, from_side, message) -> bool:
        if from_side != SWITCH_SIDE or not isinstance(message, BarrierReply):
            return False
        if self.rng.uniform(0.0, 1.0) >= self.probability:
            return False
        self.count("acks_duplicated")
        for _ in range(1 + int(self.copies)):
            channel.forward(from_side, message)
        return True


class PrematureAckFault(ControlChannelFault):
    """With probability ``probability`` a barrier is acknowledged before the switch sees it."""

    name = "premature-ack"
    param_defaults = {"probability": 1.0}

    def validate(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")

    def setup(self) -> None:
        self._answered_early: Set[int] = set()

    def on_transmit(self, channel, from_side, message) -> bool:
        if from_side == CONTROLLER_SIDE and isinstance(message, BarrierRequest):
            if self.rng.uniform(0.0, 1.0) >= self.probability:
                return False
            self.count("premature_acks")
            self._answered_early.add(message.xid)
            # Ack immediately, then still deliver the request so the switch
            # eventually does the work it already "confirmed".
            channel.send_to_controller(BarrierReply(xid=message.xid))
            channel.forward(from_side, message)
            return True
        if (from_side == SWITCH_SIDE and isinstance(message, BarrierReply)
                and message.xid in self._answered_early):
            # Swallow the switch's real (late) reply: the controller must see
            # exactly one acknowledgment — the premature one.
            self._answered_early.discard(message.xid)
            self.count("late_acks_suppressed")
            return True
        return False


class ChannelJitterFault(ControlChannelFault):
    """With probability ``probability`` a message is delayed by up to ``max_jitter`` seconds."""

    name = "channel-jitter"
    param_defaults = {"probability": 1.0, "max_jitter": 0.05}

    def validate(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        if self.max_jitter < 0:
            raise ValueError("max_jitter must be >= 0")

    def on_transmit(self, channel, from_side, message) -> bool:
        if self.rng.uniform(0.0, 1.0) >= self.probability:
            return False
        self.count("messages_jittered")
        channel.forward(from_side, message,
                        extra_latency=self.rng.uniform(0.0, self.max_jitter))
        return True


class DisconnectFault(ControlChannelFault):
    """The control connection is down during ``[at, at + outage)``.

    Every message *transmitted* inside the window is lost; a message sent
    just before the outage still arrives (channel latencies are sub-
    millisecond against outage windows of hundreds of milliseconds, so the
    in-flight tail is negligible at this model's granularity).
    """

    name = "disconnect"
    param_defaults = {"at": 0.5, "outage": 0.5}

    def validate(self) -> None:
        if self.at < 0 or self.outage < 0:
            raise ValueError("at and outage must be >= 0")

    def on_transmit(self, channel, from_side, message) -> bool:
        if self.at <= self.sim.now < self.at + self.outage:
            self.count("messages_lost")
            return True
        return False
