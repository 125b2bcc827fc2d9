"""OpenFlow 1.0-style substrate.

This package models the parts of OpenFlow that RUM manipulates:

* :mod:`repro.openflow.match` — the 12-tuple match with wildcards and IPv4
  prefixes, plus the overlap/covering predicates probe generation needs,
* :mod:`repro.openflow.actions` — output / set-field / controller actions,
* :mod:`repro.openflow.messages` — FlowMod, Barrier, PacketIn/PacketOut,
  Error, Stats and session messages with monotonically increasing xids,
* :mod:`repro.openflow.flowtable` — a priority flow table with OpenFlow add /
  modify / delete semantics and an installation-order mode replicating the
  paper's hardware switch that ignores priorities,
* :mod:`repro.openflow.connection` — simulated controller↔switch channels the
  RUM proxy can transparently interpose on.
"""

from repro.openflow.constants import (
    CONTROLLER_PORT,
    FlowModCommand,
    OFErrorCode,
    OFErrorType,
    OFMessageType,
    PacketInReason,
)
from repro.openflow.match import Match
from repro.openflow.actions import (
    Action,
    ControllerAction,
    DropAction,
    OutputAction,
    SetFieldAction,
)
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
    PacketIn,
    PacketOut,
    StatsReply,
    StatsRequest,
)
from repro.openflow.flowtable import FlowEntry, FlowTable
from repro.openflow.connection import Connection, ConnectionEndpoint

__all__ = [
    "Action",
    "BarrierReply",
    "BarrierRequest",
    "CONTROLLER_PORT",
    "Connection",
    "ConnectionEndpoint",
    "ControllerAction",
    "DropAction",
    "EchoReply",
    "EchoRequest",
    "ErrorMessage",
    "FeaturesReply",
    "FeaturesRequest",
    "FlowEntry",
    "FlowMod",
    "FlowModCommand",
    "FlowTable",
    "Hello",
    "Match",
    "OFErrorCode",
    "OFErrorType",
    "OFMessage",
    "OFMessageType",
    "OutputAction",
    "PacketIn",
    "PacketInReason",
    "PacketOut",
    "SetFieldAction",
    "StatsReply",
    "StatsRequest",
]
