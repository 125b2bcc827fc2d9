"""OpenFlow message classes.

Each message carries a transaction id (``xid``).  RUM relies heavily on xids:
it must remember which FlowMod/Barrier a given reply or probe confirmation
corresponds to, and it must be able to inject messages with fresh xids that
never collide with the controller's.
"""

from __future__ import annotations

import itertools
from typing import List, Optional, Sequence

from repro.openflow.actions import Action
from repro.openflow.constants import (
    FlowModCommand,
    OFErrorCode,
    OFErrorType,
    OFMessageType,
    PacketInReason,
    StatsType,
)
from repro.openflow.match import Match
from repro.packet.packet import Packet

#: The running session's xid sequence, in a slot :func:`rewind_xids` refills:
#: a message without an explicit xid takes the next one, unique in the session.
_xids = [itertools.count(1)]


def rewind_xids() -> None:
    """Number xids from 1 again; :func:`~repro.session.engine.run_session`
    calls this on entry, so each session owns its xids."""
    _xids[0] = itertools.count(1)


class OFMessage:
    """Base class of every OpenFlow message."""

    message_type: OFMessageType = OFMessageType.HELLO

    def __init__(self, xid: Optional[int] = None) -> None:
        self.xid = next(_xids[0]) if xid is None else int(xid)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<{type(self).__name__} xid={self.xid}>"


class Hello(OFMessage):
    """Session establishment message."""

    message_type = OFMessageType.HELLO


class EchoRequest(OFMessage):
    """Liveness check request."""

    message_type = OFMessageType.ECHO_REQUEST

    def __init__(self, payload: bytes = b"", xid: Optional[int] = None) -> None:
        super().__init__(xid)
        self.payload = payload


class EchoReply(OFMessage):
    """Liveness check reply (echoes the request payload)."""

    message_type = OFMessageType.ECHO_REPLY

    def __init__(self, payload: bytes = b"", xid: Optional[int] = None) -> None:
        super().__init__(xid)
        self.payload = payload


class FeaturesRequest(OFMessage):
    """Ask the switch for its datapath id and port list."""

    message_type = OFMessageType.FEATURES_REQUEST


class FeaturesReply(OFMessage):
    """Switch capabilities announcement."""

    message_type = OFMessageType.FEATURES_REPLY

    def __init__(
        self,
        datapath_id: int,
        ports: Sequence[int],
        n_tables: int = 1,
        capabilities: int = 0,
        xid: Optional[int] = None,
    ) -> None:
        super().__init__(xid)
        self.datapath_id = int(datapath_id)
        self.ports = list(ports)
        self.n_tables = n_tables
        self.capabilities = capabilities


class FlowMod(OFMessage):
    """Install, modify or delete a flow-table rule."""

    message_type = OFMessageType.FLOW_MOD

    def __init__(
        self,
        match: Match,
        actions: Sequence[Action] = (),
        command: FlowModCommand = FlowModCommand.ADD,
        priority: int = 32768,
        cookie: int = 0,
        idle_timeout: int = 0,
        hard_timeout: int = 0,
        xid: Optional[int] = None,
    ) -> None:
        super().__init__(xid)
        self.match = match
        self.actions: List[Action] = list(actions)
        self.command = FlowModCommand(command)
        self.priority = int(priority)
        self.cookie = int(cookie)
        self.idle_timeout = int(idle_timeout)
        self.hard_timeout = int(hard_timeout)

    @property
    def is_delete(self) -> bool:
        """Whether this FlowMod removes rules."""
        return self.command in (FlowModCommand.DELETE, FlowModCommand.DELETE_STRICT)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"<FlowMod xid={self.xid} {self.command.name} prio={self.priority} "
            f"{self.match!r} actions={self.actions!r}>"
        )


class BarrierRequest(OFMessage):
    """Ask the switch to finish all previous commands before replying."""

    message_type = OFMessageType.BARRIER_REQUEST


class BarrierReply(OFMessage):
    """Reply to a BarrierRequest; carries the request's xid."""

    message_type = OFMessageType.BARRIER_REPLY


class PacketOut(OFMessage):
    """Controller-originated packet injection (probing's hot message: it
    draws its xid without calling :class:`OFMessage`'s ``__init__``)."""

    message_type = OFMessageType.PACKET_OUT

    def __init__(
        self,
        packet: Packet,
        actions: Sequence[Action],
        in_port: int = 0xFFFF,
        xid: Optional[int] = None,
    ) -> None:
        self.xid = next(_xids[0]) if xid is None else int(xid)
        self.packet = packet
        self.actions: List[Action] = list(actions)
        self.in_port = in_port


class PacketIn(OFMessage):
    """Switch-originated packet delivery to the controller."""

    message_type = OFMessageType.PACKET_IN

    def __init__(
        self,
        packet: Packet,
        in_port: int,
        reason: PacketInReason = PacketInReason.ACTION,
        buffer_id: int = 0xFFFFFFFF,
        datapath_id: int = 0,
        xid: Optional[int] = None,
    ) -> None:
        super().__init__(xid)
        self.packet = packet
        self.in_port = in_port
        self.reason = PacketInReason(reason)
        self.buffer_id = buffer_id
        self.datapath_id = datapath_id


class ErrorMessage(OFMessage):
    """Error notification.

    RUM reuses an error message with the otherwise-unused code
    :data:`OFErrorCode.RUM_RULE_CONFIRMED` (type :data:`OFErrorType.VENDOR`)
    as a positive, fine-grained rule acknowledgment, because OpenFlow 1.0 has
    no message for "this FlowMod succeeded".  The ``data`` field then carries
    the xid of the confirmed FlowMod.
    """

    message_type = OFMessageType.ERROR

    def __init__(
        self,
        error_type: OFErrorType,
        error_code: int,
        data: int = 0,
        xid: Optional[int] = None,
    ) -> None:
        super().__init__(xid)
        self.error_type = OFErrorType(error_type)
        self.error_code = int(error_code)
        self.data = int(data)

    @property
    def is_rum_confirmation(self) -> bool:
        """Whether this error message is actually RUM's positive rule ack."""
        return (
            self.error_type == OFErrorType.VENDOR
            and self.error_code == int(OFErrorCode.RUM_RULE_CONFIRMED)
        )

    @classmethod
    def rule_confirmation(cls, flowmod_xid: int) -> "ErrorMessage":
        """Build the positive acknowledgment for the FlowMod with ``flowmod_xid``."""
        return cls(OFErrorType.VENDOR, int(OFErrorCode.RUM_RULE_CONFIRMED), data=flowmod_xid)


class StatsRequest(OFMessage):
    """Statistics request (flow / aggregate / port)."""

    message_type = OFMessageType.STATS_REQUEST

    def __init__(
        self,
        stats_type: StatsType = StatsType.FLOW,
        match: Optional[Match] = None,
        xid: Optional[int] = None,
    ) -> None:
        super().__init__(xid)
        self.stats_type = StatsType(stats_type)
        self.match = match if match is not None else Match()


class StatsReply(OFMessage):
    """Statistics reply carrying an opaque body (list of dicts)."""

    message_type = OFMessageType.STATS_REPLY

    def __init__(
        self,
        stats_type: StatsType = StatsType.FLOW,
        body: Optional[list] = None,
        xid: Optional[int] = None,
    ) -> None:
        super().__init__(xid)
        self.stats_type = StatsType(stats_type)
        self.body = body if body is not None else []
