"""The collecting tracer a traced session hangs on its simulator.

A traced session's :class:`~repro.sim.kernel.Simulator` carries a
:class:`Tracer` as ``sim.tracer``; a bare one carries ``None``.  Every
instrumentation site reads the slot once and guards on it::

    tr = self.sim.tracer
    if tr is not None:
        tr.rule(PHASE_MSG_SENT, self.sim.now, self.name, message.xid)

On a bare run that is one attribute load and one false branch — no
allocation, no call — so runs with tracing disarmed behave (and digest)
exactly as if this package did not exist.  An emit without the guard fails
with ``AttributeError`` on every bare run.  On a traced run an emit only
appends an event: the tracer schedules nothing, so a traced session executes
exactly the kernel steps of its bare twin.  The tracer lives and dies with
its simulator, so nothing can leak into the next session.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.events import PHASE_FAULT, TraceEvent, TraceLog


class Tracer:
    """Collecting tracer: appends slotted lifecycle and fault events."""

    def __init__(self, technique: str = "", kind: str = "",
                 seed: Optional[int] = None) -> None:
        self.technique = technique
        self.kind = kind
        self.seed = seed
        self.events: list = []

    def rule(self, phase: str, ts: float, switch: str = "",
             xid: Optional[int] = None, detail: str = "") -> None:
        """Record a lifecycle event."""
        self.events.append(TraceEvent(ts, phase, switch, xid, detail))

    def fault(self, ts: float, switch: str = "", detail: str = "") -> None:
        """Record a fault-model activation."""
        self.events.append(TraceEvent(ts, PHASE_FAULT, switch, None, detail))

    def finish(self, meta: Optional[dict] = None) -> TraceLog:
        """Freeze the collected events into a ``TraceLog``."""
        log = TraceLog(technique=self.technique, kind=self.kind,
                       seed=self.seed, events=self.events)
        if meta:
            log.meta.update(meta)
        return log
