"""Simulated OpenFlow control channels.

A :class:`Connection` joins two :class:`ConnectionEndpoint` objects (for
example a switch agent and a controller, or a switch and the RUM proxy).
Messages sent on one endpoint are delivered to the other endpoint's receive
handler after the configured one-way latency, preserving ordering — exactly
the guarantee a TCP connection gives a real controller.

The RUM prototype in the paper is a TCP proxy: switches connect to it as if
it were the controller, and it opens upstream connections to the real
controller, impersonating each switch.  The same topology is expressed here
by creating one Connection between each switch and the proxy and another
between the proxy and the controller, and letting the proxy forward (or
buffer, rewrite, inject, drop) messages between its two endpoints.

Delivery: ``send`` traces a message and offers it to the fault interceptor;
``_schedule_delivery`` pushes the peer's ``_deliver`` onto the kernel's heap
as ``schedule_callback`` would, so a handler never runs inside ``send``; its
``delay >= 0`` holds as the constructor and :class:`~repro.faults.harness.ChannelHook`
reject a NaN or negative latency."""

from __future__ import annotations

from heapq import heappush
from typing import Callable, List, Optional

from repro.obs.events import PHASE_MSG_SENT
from repro.openflow.messages import OFMessage
from repro.sim.kernel import Simulator

MessageHandler = Callable[[OFMessage], None]
#: A fault interceptor: ``(from_side, message) -> consumed``.  Returning
#: ``True`` means the interceptor took over delivery (dropped, delayed or
#: replaced the message); ``False`` lets normal delivery proceed.
TransmitIntercept = Callable[[int, OFMessage], bool]


class ConnectionEndpoint:
    """One side of a control channel."""

    def __init__(self, name: str, connection: "Connection", side: int) -> None:
        self.name = name
        self.connection = connection
        self._side = side
        self._handler: Optional[MessageHandler] = None
        self._backlog: List[OFMessage] = []

    # -- wiring -------------------------------------------------------------
    def on_message(self, handler: MessageHandler) -> None:
        """Register the receive handler; drains any messages that arrived early."""
        self._handler = handler
        backlog, self._backlog = self._backlog, []
        for message in backlog:
            self._deliver(message)

    # -- I/O -----------------------------------------------------------------
    def send(self, message: OFMessage) -> None:
        """Send ``message`` to the peer endpoint (asynchronous, ordered)."""
        connection = self.connection
        tr = connection.sim.tracer
        if tr is not None:
            # The channel is named after what it connects (``ctl-<switch>``,
            # ``rum-<switch>``); the timeline maps it back to the switch.
            tr.rule(PHASE_MSG_SENT, connection.sim.now, connection.name,
                    getattr(message, "xid", None), detail=type(message).__name__)
        intercept = connection._intercept
        if intercept is not None and intercept(self._side, message):
            return
        connection._schedule_delivery(self._side, message)

    def _deliver(self, message: OFMessage) -> None:
        if self._handler is None:
            self._backlog.append(message)
        else:
            self._handler(message)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<Endpoint {self.name} of {self.connection.name}>"


class Connection:
    """A bidirectional, ordered, lossless control channel with fixed latency."""

    def __init__(
        self,
        sim: Simulator,
        name: str = "channel",
        latency: float = 0.0005,
        name_a: str = "a",
        name_b: str = "b",
    ) -> None:
        if not latency >= 0:  # a NaN latency fails this too
            raise ValueError(f"latency must be >= 0, not {latency}")
        self.sim = sim
        self.name = name
        self.latency = latency
        self._endpoints = (
            ConnectionEndpoint(name_a, self, 0),
            ConnectionEndpoint(name_b, self, 1),
        )
        #: Per-direction delivery time of the last message, used to preserve
        #: FIFO ordering even if latency were to change mid-run.
        self._last_delivery = [0.0, 0.0]
        #: Optional fault interceptor (see :mod:`repro.faults.control`);
        #: ``None`` — the default — is the lossless fixed-latency channel.
        self._intercept: Optional[TransmitIntercept] = None

    # -- endpoints -----------------------------------------------------------
    @property
    def side_a(self) -> ConnectionEndpoint:
        """The first endpoint (conventionally the switch side)."""
        return self._endpoints[0]

    @property
    def side_b(self) -> ConnectionEndpoint:
        """The second endpoint (conventionally the controller side)."""
        return self._endpoints[1]

    # -- fault interception --------------------------------------------------
    def install_intercept(self, intercept: TransmitIntercept) -> None:
        """Route every transmission through ``intercept`` (fault injection).

        Only one interceptor can be installed; the fault harness chains
        multiple fault models behind a single callable.
        """
        if self._intercept is not None:
            raise ValueError(f"connection {self.name!r} already has an interceptor")
        self._intercept = intercept

    def remove_intercept(self) -> None:
        """Restore the lossless, fixed-latency behaviour."""
        self._intercept = None

    def close(self) -> None:
        """Hang up for good: handlers, backlogs and the interceptor are
        dropped and the endpoints forget the channel, so it no longer ties
        its two users (and itself) into a reference cycle."""
        self._intercept = None
        for endpoint in self._endpoints:
            endpoint._handler = None
            endpoint._backlog.clear()
            endpoint.connection = None

    # -- transmission -----------------------------------------------------------
    def _schedule_delivery(self, from_side: int, message: OFMessage,
                           extra_latency: float = 0.0) -> None:
        to_side = 1 - from_side
        sim = self.sim
        now = sim._now
        deliver_at = now + self.latency + extra_latency
        last_delivery = self._last_delivery
        if deliver_at < last_delivery[to_side]:
            deliver_at = last_delivery[to_side]
        last_delivery[to_side] = deliver_at
        sequence = sim._sequence
        sim._sequence = sequence + 1
        heappush(sim._heap, (now + (deliver_at - now), sequence,
                             self._endpoints[to_side]._deliver, (message,)))

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<Connection {self.name} latency={self.latency * 1000:.2f}ms>"
