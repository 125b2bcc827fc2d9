"""Module-level tracer with a null-object fast path.

Instrumentation sites throughout the stack read the module-level
:data:`TRACER` once and branch on its ``active`` flag::

    tr = tracer.TRACER
    if tr.active:
        tr.rule(PHASE_MSG_SENT, self.sim.now, self.name, message.xid)

With the default :class:`NullTracer` installed that is one attribute load
and one false branch — no allocation, no call — so runs with tracing
disarmed behave (and digest) exactly as if this package did not exist.
:func:`tracing` rebinds the global for the duration of a traced session and
restores the null object on the way out, so a crashing run cannot leak an
active tracer into the next one.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from repro.obs.events import PHASE_FAULT, TraceEvent, TraceLog
from repro.obs.metrics import MetricsRegistry


class NullTracer:
    """Inert tracer: ``active`` is a class attribute, methods are no-ops."""

    active = False

    def rule(self, phase: str, ts: float, switch: str = "",
             xid: Optional[int] = None, detail: str = "") -> None:
        """Record a lifecycle event (no-op)."""

    def fault(self, ts: float, switch: str = "", detail: str = "") -> None:
        """Record a fault-model activation (no-op)."""

    def count(self, name: str, n: int = 1) -> None:
        """Bump a counter (no-op)."""

    def gauge(self, name: str, ts: float, value: float) -> None:
        """Record a gauge sample (no-op)."""


class Tracer(NullTracer):
    """Collecting tracer: appends slotted events, feeds a metrics registry."""

    active = True

    def __init__(self, technique: str = "", kind: str = "",
                 seed: Optional[int] = None) -> None:
        self.technique = technique
        self.kind = kind
        self.seed = seed
        self.events: list = []
        self.metrics = MetricsRegistry()

    def rule(self, phase: str, ts: float, switch: str = "",
             xid: Optional[int] = None, detail: str = "") -> None:
        self.events.append(TraceEvent(ts, phase, switch, xid, detail))

    def fault(self, ts: float, switch: str = "", detail: str = "") -> None:
        self.events.append(TraceEvent(ts, PHASE_FAULT, switch, None, detail))

    def count(self, name: str, n: int = 1) -> None:
        self.metrics.counter(name).inc(n)

    def gauge(self, name: str, ts: float, value: float) -> None:
        self.metrics.gauge(name).set(ts, value)

    def finish(self, meta: Optional[dict] = None) -> TraceLog:
        """Freeze the collected events + metrics into a ``TraceLog``."""
        log = TraceLog(technique=self.technique, kind=self.kind,
                       seed=self.seed, events=self.events,
                       metrics=self.metrics.as_dict())
        if meta:
            log.meta.update(meta)
        return log


#: Shared inert instance; ``TRACER`` points here unless a session armed
#: tracing.  Hot paths must re-read ``tracer.TRACER`` per call site (cheap)
#: rather than caching it across sim runs.
NULL_TRACER = NullTracer()

TRACER: NullTracer = NULL_TRACER


def install_tracer(tr: Tracer) -> Tracer:
    """Make ``tr`` the process-wide tracer; returns it for chaining."""
    global TRACER
    if TRACER is not NULL_TRACER:
        raise RuntimeError("a tracer is already installed; "
                           "traced sessions cannot nest")
    TRACER = tr
    return tr


def uninstall_tracer() -> None:
    global TRACER
    TRACER = NULL_TRACER


@contextmanager
def tracing(technique: str = "", kind: str = "",
            seed: Optional[int] = None) -> Iterator[Tracer]:
    """Arm a fresh ``Tracer`` for the duration of a ``with`` block."""
    tr = install_tracer(Tracer(technique=technique, kind=kind, seed=seed))
    try:
        yield tr
    finally:
        uninstall_tracer()
