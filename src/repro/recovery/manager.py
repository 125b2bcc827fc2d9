"""The controller-side recovery engine: retransmits and crash resync.

Armed by the session engine when ``SessionKnobs.recovery`` carries an
enabled :class:`~repro.recovery.policy.RecoveryPolicy`, the manager hangs
off ``Controller.recovery`` (a single ``None``-check on the send/ack paths,
so a build without recovery is byte-identical) and does two things:

* **Retransmission** — every un-acked FlowMod gets a timeout check; on
  expiry the same-xid FlowMod is re-sent (the switch's per-boot xid
  de-duplication makes that idempotent) with exponential backoff, until it
  is acked or ``max_attempts`` transmissions are exhausted — at which point
  the ack is *failed* (see :meth:`Controller.fail_ack`) instead of pending
  forever.

* **Resync** — on a switch reconnect (``Switch.restore`` →
  ``Controller.on_switch_reconnect``) the shadow table is diffed against
  the switch's wiped data plane and the missing rules are replayed with
  fresh xids *through* ``Controller.send_flowmod``, so the active
  technique's barrier/probing/ack semantics cover the reinstalls too.
  ``resync-started`` / ``rule-reinstalled`` / ``resync-complete`` events
  land on the trace timeline of :mod:`repro.obs`.

:meth:`RecoveryManager.report` summarises the whole run — retries, failed
acks, rules reinstalled, time-to-reconvergence, packets dropped inside
outage windows — for ``RunRecord.recovery``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from repro.obs.events import (
    PHASE_RESYNC_COMPLETE,
    PHASE_RESYNC_STARTED,
    PHASE_RULE_REINSTALLED,
)
from repro.recovery.policy import RecoveryPolicy
from repro.recovery.shadow import ShadowStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.controller.base import Controller, RuleAck
    from repro.net.network import Network
    from repro.sim.kernel import Simulator


class _Resync:
    """Bookkeeping for one in-flight shadow replay on one switch."""

    __slots__ = ("switch", "started_at", "expected", "pending", "issuing", "done")

    def __init__(self, switch: str, started_at: float, expected: int) -> None:
        self.switch = switch
        self.started_at = started_at
        self.expected = expected
        #: Reinstall xids still waiting for their acknowledgment.
        self.pending: set = set()
        #: True while the replay loop is still issuing (an AckMode.NONE send
        #: acks synchronously, mid-loop).
        self.issuing = False
        self.done = False


class RecoveryManager:
    """Per-session recovery state machine (see module docstring)."""

    def __init__(
        self,
        sim: "Simulator",
        controller: "Controller",
        network: "Network",
        policy: Optional[RecoveryPolicy] = None,
    ) -> None:
        self.sim = sim
        self.controller = controller
        self.network = network
        self.policy = policy or RecoveryPolicy()
        self.policy.validate()
        self.shadow = ShadowStore()

        # Convergence accounting --------------------------------------------
        self.retries = 0
        self.acks_failed = 0
        self.rules_reinstalled = 0
        self.crashes_seen = 0
        self.restores_seen = 0
        self.resyncs_started = 0
        self.resyncs_completed = 0
        self.resyncs_aborted = 0
        self.first_crash_at: Optional[float] = None
        self.last_reconvergence_at: Optional[float] = None
        #: Dropped-packet counter sampled when each switch went down.
        self._outage_baseline: Dict[str, int] = {}
        self.outage_dropped_packets = 0

        self._active_resyncs: Dict[str, _Resync] = {}

    # -- wiring ---------------------------------------------------------------
    def attach(self) -> None:
        """Hook the manager into the controller and every switch's lifecycle."""
        self.controller.recovery = self
        for switch in self.network.switches.values():
            switch.on_lifecycle(self._on_switch_lifecycle)

    def detach(self) -> None:
        """Unhook from the controller (a closing network drops the switches'
        lifecycle listeners itself)."""
        self.controller.recovery = None

    def _on_switch_lifecycle(self, switch_name: str, event: str) -> None:
        if event == "crash":
            self.crashes_seen += 1
            if self.first_crash_at is None:
                self.first_crash_at = self.sim.now
            self._outage_baseline[switch_name] = self.network.monitor.total_dropped()
            # A crash mid-resync kills the replay with the switch; the next
            # restore starts a fresh one against the re-wiped tables.
            stale = self._active_resyncs.pop(switch_name, None)
            if stale is not None and not stale.done:
                self.resyncs_aborted += 1
        elif event == "restore":
            self.restores_seen += 1
            self.controller.on_switch_reconnect(switch_name)

    # -- controller send/ack hooks -------------------------------------------
    def flowmod_sent(self, ack: "RuleAck") -> None:
        """Called by ``Controller.send_flowmod`` for every issued FlowMod."""
        self.shadow.record(ack.switch, ack.flowmod, now=self.sim.now)
        if self.policy.retransmit and not ack.acked:
            self.sim.schedule_callback(self.policy.ack_timeout,
                                       self._check_ack, ack, 1)

    def flowmod_acked(self, ack: "RuleAck") -> None:
        """Called by ``Controller._complete_ack`` when an ack resolves."""
        self._resolve_resync_xid(ack.switch, ack.xid)

    def _resolve_resync_xid(self, switch_name: str, xid: int) -> None:
        resync = self._active_resyncs.get(switch_name)
        if resync is None or resync.done:
            return
        resync.pending.discard(xid)
        if not resync.pending and not resync.issuing:
            self._finish_resync(resync)

    def _check_ack(self, ack: "RuleAck", attempt: int) -> None:
        if ack.acked or ack.failed:
            return
        if attempt >= self.policy.max_attempts:
            self.acks_failed += 1
            self.controller.fail_ack(ack)
            # A failed reinstall must not wedge its resync's completion
            # accounting (the failure still shows up in `acks_failed`).
            self._resolve_resync_xid(ack.switch, ack.xid)
            return
        self.retries += 1
        self.controller.retransmit(ack)
        delay = self.policy.ack_timeout * (self.policy.backoff ** attempt)
        self.sim.schedule_callback(delay, self._check_ack, ack, attempt + 1)

    # -- resync ----------------------------------------------------------------
    def on_switch_reconnect(self, switch_name: str) -> None:
        """Schedule the shadow replay for a restored switch."""
        if not self.policy.resync:
            return
        switch = self.network.switch(switch_name)
        epoch = switch.crash_epoch
        if self.policy.resync_delay > 0:
            self.sim.schedule_callback(self.policy.resync_delay,
                                       self._resync, switch, epoch)
        else:
            self._resync(switch, epoch)

    def _resync(self, switch, epoch: int) -> None:
        if switch.crashed or switch.crash_epoch != epoch:
            # Crashed again before the replay started; the next restore
            # schedules a fresh resync.
            return
        missing = self.shadow.missing_rules(switch)
        now = self.sim.now
        resync = _Resync(switch.name, now, expected=len(missing))
        self._active_resyncs[switch.name] = resync
        self.resyncs_started += 1
        tr = self.sim.tracer
        if tr is not None:
            tr.rule(PHASE_RESYNC_STARTED, now, switch.name,
                    detail=f"missing={len(missing)}")
        if not missing:
            self._finish_resync(resync)
            return
        # Replay through the normal issue path: the technique's ack machinery
        # (RUM probing, barriers, ...) covers reinstalls exactly like
        # first-time installs, and `flowmod_acked` checks them back in.
        resync.issuing = True
        for entry in missing:
            flowmod = self.shadow.reinstall_flowmod(entry)
            self.rules_reinstalled += 1
            resync.pending.add(flowmod.xid)
            if tr is not None:
                tr.rule(PHASE_RULE_REINSTALLED, self.sim.now, switch.name,
                        flowmod.xid, detail=f"prio={flowmod.priority}")
            self.controller.send_flowmod(switch.name, flowmod)
        from repro.controller.base import AckMode

        if self.controller.ack_mode == AckMode.BARRIER:
            # Barrier-mode acks only resolve on a barrier reply.
            self.controller.send_barrier(switch.name)
        resync.issuing = False
        if not resync.pending and not resync.done:
            self._finish_resync(resync)

    def _finish_resync(self, resync: _Resync) -> None:
        resync.done = True
        self.resyncs_completed += 1
        self.last_reconvergence_at = self.sim.now
        baseline = self._outage_baseline.pop(resync.switch, None)
        if baseline is not None:
            self.outage_dropped_packets += (
                self.network.monitor.total_dropped() - baseline
            )
        tr = self.sim.tracer
        if tr is not None:
            tr.rule(PHASE_RESYNC_COMPLETE, self.sim.now, resync.switch,
                    detail=(f"reinstalled={resync.expected} "
                            f"took={self.sim.now - resync.started_at:.4f}"))
        self._active_resyncs.pop(resync.switch, None)

    # -- results ----------------------------------------------------------------
    def reconverged(self) -> bool:
        """Whether every observed outage was fully recovered from."""
        if self.crashes_seen == 0:
            return True
        return (self.restores_seen >= self.crashes_seen
                and self.resyncs_completed == self.resyncs_started
                and not self._active_resyncs
                and not any(sw.crashed for sw in self.network.switches.values()))

    def report(self) -> Dict[str, object]:
        """The ``RunRecord.recovery`` payload (JSON-able, bounded size)."""
        out: Dict[str, object] = {
            "policy": self.policy.to_string(),
            "crashes_seen": self.crashes_seen,
            "restores_seen": self.restores_seen,
            "resyncs_started": self.resyncs_started,
            "resyncs_completed": self.resyncs_completed,
            "rules_reinstalled": self.rules_reinstalled,
            "retries": self.retries,
            "acks_failed": self.acks_failed,
            "outage_dropped_packets": self.outage_dropped_packets,
            "reconverged": self.reconverged(),
        }
        if self.resyncs_aborted:
            out["resyncs_aborted"] = self.resyncs_aborted
        if self.first_crash_at is not None and self.last_reconvergence_at is not None:
            out["time_to_reconvergence"] = (
                self.last_reconvergence_at - self.first_crash_at
            )
        return out
