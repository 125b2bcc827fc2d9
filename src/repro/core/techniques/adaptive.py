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
from repro.core.techniques.base import AckTechnique


class AdaptiveTimeoutTechnique(AckTechnique):
    """Confirm modifications at model-predicted data-plane apply times."""

    name = "adaptive"
    #: The paper's end-to-end experiments assume the hardware switch applies
    #: 250 modifications per second; this default is owned here (not by the
    #: experiment harness) so session, scenario and campaign runs all agree.
    config_defaults = {"assumed_rate": 250.0}

    def __init__(self, layer) -> None:
        super().__init__(layer)
        #: Model state per switch: when the switch is predicted to be done
        #: with everything forwarded so far.
        self._predicted_busy_until: Dict[str, float] = {}

    def on_flowmod_forwarded(self, switch_name: str, record: PendingRule) -> None:
        per_rule = 1.0 / self.config.assumed_rate
        start = max(
            self.sim.now + self.config.adaptive_base_delay,
            self._predicted_busy_until.get(switch_name, 0.0),
        )
        predicted_done = start + per_rule
        self._predicted_busy_until[switch_name] = predicted_done
        confirm_at = predicted_done + self.config.adaptive_margin
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
            f"adaptive timeout (assumed rate {self.config.assumed_rate:.0f} mods/s, "
            f"margin {self.config.adaptive_margin * 1000:.0f} ms)"
        )
