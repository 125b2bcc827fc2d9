"""The static-timeout technique (Section 3.1, "Delaying barrier acknowledgments").

Identical to the barrier baseline except that confirmations are delayed by a
fixed, pre-measured bound on how far the data plane can lag behind a barrier
reply.  Safe as long as the bound really holds (the paper notes it stops
holding when the flow table grows or in multi-second corner cases) and always
pays the full bound in update latency.
"""

from __future__ import annotations

from repro.core.techniques.barrier_baseline import BarrierBaselineTechnique
from repro.core.techniques.base import Parameter


class StaticTimeoutTechnique(BarrierBaselineTechnique):
    """Confirm modifications a fixed delay after the barrier reply."""

    name = "timeout"
    confirm_label = "timeout"
    #: Seconds from the barrier reply to the confirmation (the paper's 300 ms
    #: bound; 0 confirms on the reply itself).
    timeout = Parameter(0.3, zero_allowed=True)

    def handle_barrier_confirmation(self, switch_name: str, covered_sequence: int) -> None:
        self.sim.schedule_callback(
            self.timeout,
            self.layer.confirm_up_to,
            switch_name,
            covered_sequence,
            self.confirm_label,
        )

    def describe(self) -> str:
        return f"static timeout ({self.timeout * 1000:.0f} ms after barrier reply)"
