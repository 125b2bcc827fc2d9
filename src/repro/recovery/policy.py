"""The declarative recovery policy riding on :class:`SessionKnobs`.

A :class:`RecoveryPolicy` describes how the controller survives switch
failures — shadow-table resync on reconnect plus retransmission of un-acked
FlowMods — the same way :class:`~repro.faults.plan.FaultPlan` describes how
the network misbehaves.  Like a fault plan it has one codec, the one-line
string of :meth:`RecoveryPolicy.to_string` / :meth:`RecoveryPolicy.from_string`
(``from_string(to_string(p)) == p``), used by CLI axes, campaign grids and
``SessionSpec.config()``::

      on
      on(ack_timeout=0.1,max_attempts=6)

Every :data:`NO_RECOVERY` spelling (``off``, ``none``, ...) parses to
``None``, the one run-time meaning of "no recovery": a session whose knobs
carry no policy arms nothing and is byte-identical to a build without this
subsystem.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
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
        return self.resync or self.retransmit

    def validate(self) -> None:
        # Written so NaN and infinity fail too: neither has a string form.
        if not 0 < self.ack_timeout < math.inf:
            raise ValueError("ack_timeout must be a finite number > 0")
        if not 1.0 <= self.backoff < math.inf:
            raise ValueError("backoff must be a finite number >= 1.0")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if not 0 <= self.resync_delay < math.inf:
            raise ValueError("resync_delay must be a finite number >= 0")

    # -- codec ----------------------------------------------------------------
    def to_string(self) -> str:
        """Compact one-line form: ``"on"`` plus the non-default fields."""
        overrides = []
        defaults = RecoveryPolicy()
        for name in _FIELD_CASTS:
            value = getattr(self, name)
            if value != getattr(defaults, name):
                encoded = ("true" if value is True else
                           "false" if value is False else str(value))
                overrides.append(f"{name}={encoded}")
        if not overrides:
            return "on"
        return "on(" + ",".join(overrides) + ")"

    @classmethod
    def from_string(cls, text: Optional[str]) -> Optional["RecoveryPolicy"]:
        """Parse the compact form; every :data:`NO_RECOVERY` spelling is ``None``."""
        text = (text or "").strip().lower()
        if text in NO_RECOVERY:
            return None
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
