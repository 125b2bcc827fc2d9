"""OpenFlow actions.

An action list is applied to a packet by the switch data plane, in order.
The reproduction needs only four kinds:

* :class:`OutputAction` — forward out of a physical port,
* :class:`ControllerAction` — encapsulate in a PacketIn and send to the
  controller (this is what RUM's probe-catch rules do),
* :class:`SetFieldAction` — rewrite a header field (used by the versioned
  probe rule: ``H1 <- postprobe, H2 <- version``),
* :class:`DropAction` — explicit drop (OpenFlow expresses this with an empty
  action list; we keep an explicit action for readability in rule dumps).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.openflow.constants import CONTROLLER_PORT, DROP_PORT
from repro.packet.fields import FIELD_INDEX, FIELD_REGISTRY, HeaderField
from repro.packet.packet import HeaderValues


class Action:
    """Base class for all actions."""

    #: Discriminator leading every :meth:`forwarding_signature`.
    kind = "action"

    def forwarding_signature(self) -> Tuple:
        """A hashable summary of the action's externally observable effect.

        Probe generation compares signatures to decide whether two rules are
        distinguishable from the data plane (same output port *and* same
        rewrites means a probe cannot tell them apart).
        """
        return (self.kind,)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Action) and self.forwarding_signature() == other.forwarding_signature()

    def __hash__(self) -> int:
        return hash(self.forwarding_signature())


class OutputAction(Action):
    """Forward the packet out of ``port``."""

    kind = "output"

    def __init__(self, port: int) -> None:
        if port < 0:
            raise ValueError(f"invalid port {port}")
        self.port = int(port)

    def forwarding_signature(self) -> Tuple:
        return (self.kind, self.port)

    def __repr__(self) -> str:
        return f"Output({self.port})"


class ControllerAction(Action):
    """Send the packet to the controller inside a PacketIn message."""

    kind = "controller"

    def __init__(self, max_length: int = 0xFFFF) -> None:
        self.port = CONTROLLER_PORT
        self.max_length = max_length

    def __repr__(self) -> str:
        return "ToController()"


class DropAction(Action):
    """Explicitly drop the packet."""

    kind = "drop"

    def __init__(self) -> None:
        self.port = DROP_PORT

    def __repr__(self) -> str:
        return "Drop()"


class SetFieldAction(Action):
    """Rewrite one header field to a fixed value before forwarding."""

    kind = "set_field"

    def __init__(self, field: HeaderField | str, value: int) -> None:
        self.field = HeaderField(field)
        spec = FIELD_REGISTRY[self.field]
        if not spec.rewritable:
            raise ValueError(f"field {self.field.value} is not rewritable")
        spec.validate(value)
        self.value = int(value)

    def forwarding_signature(self) -> Tuple:
        return (self.kind, self.field.value, self.value)

    def __repr__(self) -> str:
        return f"SetField({self.field.value}={self.value})"


def compile_actions(actions: Sequence[Action]) -> Tuple[tuple, Tuple[int, ...]]:
    """Interpret an action list once: ``(rewrites, ports)``, both immutable.

    ``rewrites`` are ``(header-tuple index, value)`` stores (a
    :class:`SetFieldAction` validates its value when built); ``ports`` are
    the outputs in list order and may contain :data:`CONTROLLER_PORT`.  Every
    rewrite applies to the one forwarded packet before anything is sent, so
    a ``SetField`` placed after an ``Output`` still shows; a ``DropAction``
    ends the list and leaves no ports.  Nothing else interprets action lists.
    """
    rewrites: List[Tuple[int, int]] = []
    ports: List[int] = []
    for action in actions:
        if isinstance(action, OutputAction):
            ports.append(action.port)
        elif isinstance(action, SetFieldAction):
            rewrites.append((FIELD_INDEX[action.field], action.value))
        elif isinstance(action, ControllerAction):
            ports.append(CONTROLLER_PORT)
        elif isinstance(action, DropAction):
            ports.clear()
            break
    return tuple(rewrites), tuple(ports)


def rewritten(values: HeaderValues, rewrites: tuple) -> HeaderValues:
    """The header tuple ``values`` with compiled ``rewrites`` stored in."""
    values = list(values)
    for index, value in rewrites:
        values[index] = value
    return tuple(values)


def actions_signature(actions: Sequence[Action]) -> Tuple:
    """Hashable signature of a whole action list (order preserving)."""
    return tuple(action.forwarding_signature() for action in actions)
