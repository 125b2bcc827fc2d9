"""Common interface of the acknowledgment techniques."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.pending import PendingRule
from repro.openflow.messages import OFMessage

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.rum import RumLayer


class AckTechnique:
    """Base class of all acknowledgment techniques.

    A technique never talks to switches or to the controller directly: it
    uses the hosting :class:`~repro.core.rum.RumLayer` to send RUM-originated
    messages towards switches and to confirm pending modifications (which is
    what ultimately emits the fine-grained acknowledgment upstream).
    """

    #: Name used in configuration and reports.
    name = "base"
    #: :class:`~repro.core.config.RumConfig` field defaults owned by this
    #: technique, applied (under caller overrides) by the registry whenever a
    #: config is built for it by name.
    config_defaults: dict = {}

    def __init__(self, layer: "RumLayer") -> None:
        self.layer = layer
        self.sim = layer.sim
        self.config = layer.config

    # -- lifecycle -----------------------------------------------------------
    def prepare(self) -> None:
        """Deployment-time setup (e.g. installing probe-catch rules).

        Called once, after the layer is attached to the network and before
        any experiment traffic or updates run.
        """

    def start(self) -> None:
        """Start periodic background work (probe timers)."""

    # -- notifications ------------------------------------------------------------
    def on_flowmod_forwarded(self, switch_name: str, record: PendingRule) -> None:
        """A controller FlowMod was just forwarded to ``switch_name``."""

    def on_switch_message(self, switch_name: str, message: OFMessage) -> bool:
        """A message arrived from ``switch_name``.

        Return ``True`` to consume the message (it will not be forwarded to
        the controller), ``False`` to let the layer handle it normally.
        """
        return False

    def describe(self) -> str:
        """One-line human-readable description (used in reports)."""
        return self.name


def create_technique(name: str, layer: "RumLayer") -> AckTechnique:
    """Instantiate the registered technique called ``name`` on ``layer``."""
    import repro.core.techniques  # noqa: F401 - ensure builtins are registered
    from repro.core.techniques.registry import get_technique

    try:
        entry = get_technique(name)
    except KeyError:
        raise ValueError(f"unknown acknowledgment technique {name!r}") from None
    return entry.instantiate(layer)
