"""The barrier-based baseline (Section 3.1, "Using OpenFlow barrier commands").

RUM follows every forwarded FlowMod with its own BarrierRequest and confirms
everything that barrier covers when the BarrierReply arrives.  On a
specification-compliant switch this is exactly right; on the switches the
paper measures it confirms rules 100-300 ms before they forward packets,
which is what makes every downstream consistency mechanism unsafe.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.core.pending import PendingRule
from repro.core.techniques.base import AckTechnique
from repro.openflow.messages import BarrierReply, BarrierRequest, OFMessage


class BarrierBaselineTechnique(AckTechnique):
    """Confirm modifications on the switch's barrier reply."""

    name = "barrier"
    #: Label recorded on confirmations produced by this technique.
    confirm_label = "barrier"

    def __init__(self, layer, overrides=None) -> None:
        super().__init__(layer, overrides)
        #: ``(switch, barrier xid) -> highest covered sequence number``.
        self._barrier_coverage: Dict[Tuple[str, int], int] = {}

    # -- FlowMod notifications -------------------------------------------------
    def on_flowmod_forwarded(self, switch_name: str, record: PendingRule) -> None:
        request = BarrierRequest()
        self._barrier_coverage[(switch_name, request.xid)] = record.sequence
        self.layer.send_to_switch(switch_name, request)

    # -- switch messages ------------------------------------------------------------
    def on_switch_message(self, switch_name: str, message: OFMessage) -> bool:
        if not isinstance(message, BarrierReply):
            return False
        key = (switch_name, message.xid)
        if key not in self._barrier_coverage:
            return False
        covered_sequence = self._barrier_coverage.pop(key)
        self.handle_barrier_confirmation(switch_name, covered_sequence)
        return True

    def handle_barrier_confirmation(self, switch_name: str, covered_sequence: int) -> None:
        """Confirm everything the answered barrier covers (hook for subclasses)."""
        self.layer.confirm_up_to(switch_name, covered_sequence, by=self.confirm_label)

    def describe(self) -> str:
        return "barrier baseline (one barrier per 1 FlowMods)"
