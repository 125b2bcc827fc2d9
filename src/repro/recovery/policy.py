"""The declarative recovery policy riding on :class:`SessionKnobs`.

A :class:`RecoveryPolicy` describes how the controller survives switch
failures — shadow-table resync on reconnect plus retransmission of un-acked
FlowMods — the same way :class:`~repro.faults.plan.FaultPlan` describes how
the network misbehaves.  Like a fault plan it has two codecs:

* :meth:`RecoveryPolicy.as_dict` / :meth:`RecoveryPolicy.from_dict` — the
  canonical JSON round trip (session config provenance);
* :meth:`RecoveryPolicy.to_string` / :meth:`RecoveryPolicy.from_string` — a
  compact one-line form for CLI axes and campaign grids::

      off
      on
      on(ack_timeout=0.1,max_attempts=6)

A session whose knobs carry no policy (``recovery=None``) — or a disabled
one — arms nothing: the recovery-off path is byte-identical to a build
without this subsystem.
"""

from __future__ import annotations

import math
import re
from dataclasses import asdict, dataclass
from typing import Dict, Optional

#: Spellings of "no recovery" accepted wherever a policy string is expected.
NO_RECOVERY = ("", "off", "none", "disabled")

_POLICY_PATTERN = re.compile(r"^(?P<head>[a-z-]+)(?:\((?P<params>[^)]*)\))?$")

#: Fields accepted inside ``on(...)`` overrides, with their casts.
_FIELD_CASTS = {
    "resync": bool,
    "retransmit": bool,
    "ack_timeout": float,
    "backoff": float,
    "max_attempts": int,
    "resync_delay": float,
}


@dataclass(frozen=True)
class RecoveryPolicy:
    """How the controller recovers from switch crashes and lost acks."""

    #: Master switch; a disabled policy arms nothing (byte-identical to
    #: ``SessionKnobs.recovery=None``).
    enabled: bool = True
    #: Replay shadow-tracked rules through the technique machinery when a
    #: crashed switch reconnects.
    resync: bool = True
    #: Retransmit un-acked FlowMods with exponential backoff.
    retransmit: bool = True
    #: Seconds before the first retransmission of an un-acked FlowMod.
    ack_timeout: float = 0.25
    #: Multiplier applied to the timeout after every attempt.
    backoff: float = 2.0
    #: Total transmissions (including the first) before the ack is failed.
    max_attempts: int = 4
    #: Seconds after a reconnect before the resync replay starts (lets the
    #: restarted agent come up before rules are pushed at it).
    resync_delay: float = 0.0

    @property
    def active(self) -> bool:
        """Whether this policy arms any machinery at all."""
        return self.enabled and (self.resync or self.retransmit)

    def validate(self) -> None:
        if self.ack_timeout <= 0:
            raise ValueError("ack_timeout must be > 0")
        if self.backoff < 1.0:
            raise ValueError("backoff must be >= 1.0")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.resync_delay < 0:
            raise ValueError("resync_delay must be >= 0")

    # -- codecs ---------------------------------------------------------------
    def as_dict(self) -> Dict[str, object]:
        """Canonical JSON form; :meth:`from_dict` round-trips it exactly."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Optional[Dict[str, object]]) -> Optional["RecoveryPolicy"]:
        if payload is None:
            return None
        return cls(**payload)

    def to_string(self) -> str:
        """Compact one-line form (campaign axes); ``"off"`` when disabled."""
        if not self.enabled:
            return "off"
        overrides = []
        defaults = RecoveryPolicy()
        for name in ("resync", "retransmit", "ack_timeout", "backoff",
                     "max_attempts", "resync_delay"):
            value = getattr(self, name)
            if value != getattr(defaults, name):
                encoded = ("true" if value is True else
                           "false" if value is False else str(value))
                overrides.append(f"{name}={encoded}")
        if not overrides:
            return "on"
        return "on(" + ",".join(overrides) + ")"

    @classmethod
    def from_string(cls, text: Optional[str]) -> "RecoveryPolicy":
        """Parse the compact form; ``"off"``/``"none"`` yield a disabled policy."""
        text = (text or "").strip().lower()
        if text in NO_RECOVERY:
            return cls(enabled=False)
        matched = _POLICY_PATTERN.match(text)
        if not matched or matched.group("head") != "on":
            raise ValueError(
                f"cannot parse recovery policy {text!r} "
                "(expected 'off', 'on' or 'on(key=value,...)')"
            )
        overrides: Dict[str, object] = {}
        for raw_item in (matched.group("params") or "").split(","):
            item = raw_item.strip()
            if not item:
                continue
            if "=" not in item:
                raise ValueError(f"recovery parameter {item!r} is not key=value")
            key, _, value = item.partition("=")
            key = key.strip()
            cast = _FIELD_CASTS.get(key)
            if cast is None:
                raise ValueError(
                    f"unknown recovery parameter {key!r} "
                    f"(known: {', '.join(sorted(_FIELD_CASTS))})"
                )
            value = value.strip()
            if cast is bool and value not in ("true", "false"):
                raise ValueError(f"recovery parameter {item!r} is not true or false")
            parsed = (value == "true") if cast is bool else cast(value)
            if cast is float and not math.isfinite(parsed):
                raise ValueError(f"recovery parameter {item!r} is not a finite number")
            overrides[key] = parsed
        policy = cls(**overrides)
        policy.validate()
        return policy

    def describe(self) -> str:
        """Short human-readable label for progress output and reports."""
        return self.to_string()
