"""Common interface of the acknowledgment techniques."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Mapping, Optional, Union

from repro.core.pending import PendingRule
from repro.core.techniques.registry import TECHNIQUE_NO_WAIT, TECHNIQUES
from repro.openflow.messages import FlowMod, OFMessage

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.rum import RumLayer

#: Seconds a probing technique waits before confirming a rule it cannot
#: probe: the prototype's static timeout (Sections 3.2 and 4).
FALLBACK_TIMEOUT = 0.3


@dataclass(frozen=True)
class Parameter:
    """A value a run may set for one technique, through
    ``StackSpec.rum_overrides``: declared as a class attribute of the
    technique, holding the paper's default."""

    default: Union[int, float]
    #: Whether 0 is in range (a timeout may be 0; a rate, interval, batch or
    #: window must be positive).
    zero_allowed: bool = False

    def checked(self, technique: str, name: str, value: object) -> Union[int, float]:
        """``value`` if it is in range; a ``ValueError`` naming both otherwise."""
        kind = int if isinstance(self.default, int) else (int, float)
        if (isinstance(value, bool) or not isinstance(value, kind)
                or not math.isfinite(value) or value < 0
                or (value == 0 and not self.zero_allowed)):
            bound = ">= 0" if self.zero_allowed else "> 0"
            raise ValueError(
                f"technique {technique!r}: parameter {name!r} must be a finite "
                f"{'integer' if kind is int else 'number'} {bound}, got {value!r}")
        return value


class AckTechnique:
    """Base class of all acknowledgment techniques.

    A technique never talks to switches or to the controller directly: it
    uses the hosting :class:`~repro.core.rum.RumLayer` to send RUM-originated
    messages towards switches and to confirm pending modifications (which is
    what ultimately emits the fine-grained acknowledgment upstream).

    A technique owns its parameters: each value a run may set is a
    :class:`Parameter` class attribute, and every other value it reads is a
    constant of its module.  An instance holds each parameter's value as a
    plain attribute of the same name.

    A subclass whose own body sets ``name`` is registered under it (see
    :mod:`repro.core.techniques.registry`).
    """

    #: Name used in configuration and reports; the registry key.
    name = "base"
    #: Whether runs with this technique interpose a RUM proxy chain.
    uses_rum = True
    #: Whether plan executors ignore update dependencies (no-wait mode).
    ignore_dependencies = False
    #: Parameter name -> :class:`Parameter`, collected from the class and its
    #: bases when the class is defined.
    parameters: Dict[str, Parameter] = {}

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls.parameters = {key: value for klass in reversed(cls.__mro__)
                          for key, value in vars(klass).items()
                          if isinstance(value, Parameter)}
        if "name" in cls.__dict__:
            TECHNIQUES.add(cls.name, cls)

    @classmethod
    def checked_overrides(cls, overrides: Mapping[str, object]) -> Dict[str, object]:
        """``overrides`` if each one is a declared parameter in range; a
        ``ValueError`` naming the technique and the parameter otherwise."""
        for key in overrides:
            if key not in cls.parameters:
                raise ValueError(
                    f"technique {cls.name!r} has no parameter {key!r}; it "
                    f"declares {sorted(cls.parameters)}")
        return {key: cls.parameters[key].checked(cls.name, key, value)
                for key, value in overrides.items()}

    def __init__(self, layer: "RumLayer",
                 overrides: Optional[Mapping[str, object]] = None) -> None:
        self.layer = layer
        self.sim = layer.sim
        values = self.checked_overrides(overrides or {})
        for key, parameter in self.parameters.items():
            setattr(self, key, values.get(key, parameter.default))

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
