"""The adaptive-timeout technique (Section 3.1, "Adaptive delay").

Instead of waiting a fixed worst-case bound after each barrier, RUM keeps a
model of the switch — here the simplest useful one: the switch applies rule
modifications sequentially at ``assumed_rate`` per second — and schedules
each confirmation for the moment the model predicts the modification will be
in the data plane.  The quality of the confirmation therefore depends
entirely on the model: if the real switch is slower than assumed (for
example because its rate degrades as the table fills up), confirmations
arrive too early and the technique is no safer than plain barriers — exactly
the failure mode Figure 6 shows for the "adaptive 250" configuration.
"""

from __future__ import annotations

from typing import Dict

from repro.core.pending import PendingRule
from repro.core.techniques.base import AckTechnique, Parameter

#: The model's control-to-data plane pipeline latency: the first modification
#: of a burst is predicted to be active this long after it is issued.  Part of
#: the "detailed switch performance model" the paper says the technique needs.
BASE_DELAY = 0.05
#: Safety margin added to every estimate (seconds).
MARGIN = 0.0


class AdaptiveTimeoutTechnique(AckTechnique):
    """Confirm modifications at model-predicted data-plane apply times."""

    name = "adaptive"
    #: The switch's assumed modification rate (rules/s); the paper's
    #: experiments assume 250 (and 200 for the conservative model).
    assumed_rate = Parameter(250.0)

    def __init__(self, layer, overrides=None) -> None:
        super().__init__(layer, overrides)
        #: Model state per switch: when the switch is predicted to be done
        #: with everything forwarded so far.
        self._predicted_busy_until: Dict[str, float] = {}

    def on_flowmod_forwarded(self, switch_name: str, record: PendingRule) -> None:
        per_rule = 1.0 / self.assumed_rate
        start = max(
            self.sim.now + BASE_DELAY,
            self._predicted_busy_until.get(switch_name, 0.0),
        )
        predicted_done = start + per_rule
        self._predicted_busy_until[switch_name] = predicted_done
        confirm_at = predicted_done + MARGIN
        self.sim.schedule_callback(
            confirm_at - self.sim.now,
            self._confirm,
            switch_name,
            record.xid,
        )

    def _confirm(self, switch_name: str, xid: int) -> None:
        self.layer.confirm_rule(switch_name, xid, by=self.name)

    def describe(self) -> str:
        return (
            f"adaptive timeout (assumed rate {self.assumed_rate:.0f} mods/s, "
            f"margin {MARGIN * 1000:.0f} ms)"
        )
