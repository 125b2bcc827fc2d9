"""Protocol constants mirroring OpenFlow 1.0 naming."""

from __future__ import annotations

from enum import IntEnum


#: Pseudo port number meaning "send to the controller" (OFPP_CONTROLLER).
CONTROLLER_PORT = 0xFFFD

#: Pseudo port number meaning "drop" (no real OF equivalent; empty action list).
DROP_PORT = 0xFFFE

#: Pseudo port meaning "flood on all ports but the ingress" (OFPP_FLOOD).
FLOOD_PORT = 0xFFFB


class FlowModCommand(IntEnum):
    """FlowMod commands (OFPFC_*)."""

    ADD = 0
    MODIFY = 1
    MODIFY_STRICT = 2
    DELETE = 3
    DELETE_STRICT = 4


class PacketInReason(IntEnum):
    """Why a switch sent a PacketIn (OFPR_*)."""

    NO_MATCH = 0
    ACTION = 1


class OFErrorType(IntEnum):
    """Error categories (OFPET_*), plus the vendor category RUM reuses."""

    HELLO_FAILED = 0
    BAD_REQUEST = 1
    BAD_ACTION = 2
    FLOW_MOD_FAILED = 3
    PORT_MOD_FAILED = 4
    QUEUE_OP_FAILED = 5
    #: Vendor/experimenter space.  The RUM prototype reuses an error message
    #: with an otherwise-unused code as a *positive* fine-grained rule
    #: acknowledgment (Section 4 of the paper).
    VENDOR = 0xFFFF


class OFErrorCode(IntEnum):
    """Error codes.  Only the ones the reproduction emits are listed."""

    # Standard FLOW_MOD_FAILED codes.
    ALL_TABLES_FULL = 0
    OVERLAP = 1
    EPERM = 2
    BAD_EMERG_TIMEOUT = 3
    BAD_COMMAND = 4
    UNSUPPORTED = 5
    # RUM's repurposed positive acknowledgment code (unused by OF 1.0).
    RUM_RULE_CONFIRMED = 0xF0F0

