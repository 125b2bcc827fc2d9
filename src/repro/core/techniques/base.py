"""Common interface of the acknowledgment techniques."""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from repro.core.config import RumConfig
from repro.core.pending import PendingRule
from repro.core.techniques.registry import (
    TECHNIQUE_NO_WAIT,
    TECHNIQUES,
    resolve_technique,
)
from repro.openflow.messages import FlowMod, OFMessage

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.rum import RumLayer


class AckTechnique:
    """Base class of all acknowledgment techniques.

    A technique never talks to switches or to the controller directly: it
    uses the hosting :class:`~repro.core.rum.RumLayer` to send RUM-originated
    messages towards switches and to confirm pending modifications (which is
    what ultimately emits the fine-grained acknowledgment upstream).

    A subclass whose own body sets ``name`` is registered under it (see
    :mod:`repro.core.techniques.registry`).
    """

    #: Name used in configuration and reports; the registry key.
    name = "base"
    #: :class:`~repro.core.config.RumConfig` field defaults owned by this
    #: technique, applied (under caller overrides) whenever a config is
    #: built for it by name.
    config_defaults: Dict[str, object] = {}
    #: Whether runs with this technique interpose a RUM proxy chain.
    uses_rum = True
    #: Whether plan executors ignore update dependencies (no-wait mode).
    ignore_dependencies = False

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if "name" in cls.__dict__:
            TECHNIQUES.add(cls.name, cls)

    @classmethod
    def rum_config(cls, **overrides) -> Optional[RumConfig]:
        """A validated config (defaults + ``overrides``); ``None`` if no RUM."""
        if not cls.uses_rum:
            return None
        merged = {**cls.config_defaults, **overrides}
        return RumConfig(technique=cls.name, **merged).validated()

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

    def on_rule_written(self, switch_name: str, flowmod: FlowMod) -> None:
        """RUM itself wrote ``flowmod`` to ``switch_name``: a deployment rule,
        its re-seeding after a crash, or a technique's own FlowMod."""

    def on_switch_message(self, switch_name: str, message: OFMessage) -> bool:
        """A message arrived from ``switch_name``.

        Return ``True`` to consume the message (it will not be forwarded to
        the controller), ``False`` to let the layer handle it normally.
        """
        return False

    def describe(self) -> str:
        """One-line human-readable description (used in reports)."""
        return self.name


class NoWaitTechnique(AckTechnique):
    """Issue everything at once; no consistency, no waiting (Figure 7 lower bound)."""

    name = TECHNIQUE_NO_WAIT
    uses_rum = False
    ignore_dependencies = True


def create_technique(name: str, layer: "RumLayer") -> AckTechnique:
    """Instantiate the registered technique called ``name`` on ``layer``."""
    return resolve_technique(name)(layer)
