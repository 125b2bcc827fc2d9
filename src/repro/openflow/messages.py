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
    PacketInReason,
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

    def __init__(self, xid: Optional[int] = None) -> None:
        self.xid = next(_xids[0]) if xid is None else int(xid)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<{type(self).__name__} xid={self.xid}>"


class FlowMod(OFMessage):
    """Install, modify or delete a flow-table rule."""

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
        self.command = command if type(command) is FlowModCommand else FlowModCommand(command)
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


class BarrierReply(OFMessage):
    """Reply to a BarrierRequest; carries the request's xid."""


class PacketOut(OFMessage):
    """Controller-originated packet injection (probing's hot message: it
    draws its xid without calling :class:`OFMessage`'s ``__init__``)."""

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
        self.reason = reason if type(reason) is PacketInReason else PacketInReason(reason)
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

    def __init__(
        self,
        error_type: OFErrorType,
        error_code: int,
        data: int = 0,
        xid: Optional[int] = None,
    ) -> None:
        super().__init__(xid)
        self.error_type = error_type if type(error_type) is OFErrorType else OFErrorType(error_type)
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
