"""The barrier-based baseline (Section 3.1, "Using OpenFlow barrier commands").

RUM follows every batch of forwarded FlowMods with its own BarrierRequest and
confirms the whole batch when the BarrierReply arrives.  On a specification-
compliant switch this is exactly right; on the switches the paper measures it
confirms rules 100-300 ms before they forward packets, which is what makes
every downstream consistency mechanism unsafe.
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

    def __init__(self, layer) -> None:
        super().__init__(layer)
        #: ``(switch, barrier xid) -> highest covered sequence number``.
        self._barrier_coverage: Dict[Tuple[str, int], int] = {}
        #: FlowMods forwarded since the last RUM barrier, per switch.
        self._since_last_barrier: Dict[str, int] = {}

    # -- FlowMod notifications -------------------------------------------------
    def on_flowmod_forwarded(self, switch_name: str, record: PendingRule) -> None:
        count = self._since_last_barrier.get(switch_name, 0) + 1
        if count >= self.config.barrier_batch:
            self._send_barrier(switch_name, record.sequence)
            self._since_last_barrier[switch_name] = 0
        else:
            self._since_last_barrier[switch_name] = count
            # Make sure a partially filled batch is eventually confirmed even
            # if the controller stops sending: flush after one probe interval
            # of idleness.
            self.sim.schedule_callback(
                self.config.probe_interval * 5,
                self._flush_if_idle,
                switch_name,
                record.sequence,
            )

    def _flush_if_idle(self, switch_name: str, sequence: int) -> None:
        tracker = self.layer.pending(switch_name)
        record = None
        for candidate in tracker.unconfirmed():
            if candidate.sequence == sequence:
                record = candidate
                break
        if record is not None and self._since_last_barrier.get(switch_name, 0) > 0:
            self._send_barrier(switch_name, max(
                rec.sequence for rec in tracker.unconfirmed()
            ))
            self._since_last_barrier[switch_name] = 0

    def _send_barrier(self, switch_name: str, covered_sequence: int) -> None:
        request = BarrierRequest()
        self._barrier_coverage[(switch_name, request.xid)] = covered_sequence
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
        return f"barrier baseline (one barrier per {self.config.barrier_batch} FlowMods)"
