"""The discrete-event simulation kernel.

The :class:`Simulator` keeps a priority queue of scheduled callbacks keyed by
``(time, sequence_number)`` so that events scheduled for the same instant run
in FIFO order — a property the switch and network models rely on to keep
packet and message ordering deterministic.  Callbacks are scheduled after a
delay (:meth:`Simulator.schedule_callback`) or, when the exact float of the
firing time matters, at an absolute time (:meth:`Simulator.schedule_at`).

Every heap entry is a plain callback; there are no processes.  A model that
reads as a loop — a traffic source, a technique's probe timer, the
rate-limited data-plane sync — is a callback that does one round of work and
reschedules itself, and a delay that is constant per receiver (a switch's
ingress) is added to the link's due time, not waited out.  A bound-method
callback's owner is its ``__self__``, so an observer can book every step to
the object that did the work.

Three producers push onto ``_heap`` themselves, numbered from ``_sequence``
where a scheduling call would have numbered them, to spare a frame on the
steps of a data-plane run or a probe: a link's train flush
(:mod:`repro.net.link`), a traffic source's next emission and a control
message's delivery (:mod:`repro.openflow.connection`).  The ``time >= now``
check they skip holds by construction: their delays are all validated.

A simulator is also where a session's observation lives: ``sim.tracer``
(lifecycle events, read by the layers that emit them) and ``sim.observer``
(the event tap, read by the run loop and called as
``observer(sim, time, callback, args)``, so an observer that measures heap
churn reads ``sim.schedule_sequence`` without holding the simulator).  Both
are ``None`` on a bare run, and every session rewinds the one id counter
at module scope (xids), so one session cannot leak into the next.

The execution loop is the hottest code in the repository: an end-to-end
experiment dispatches millions of tiny callbacks.  :meth:`Simulator.run`
therefore inlines the stepping loop with locally-bound heap operations
instead of calling :meth:`Simulator.step` per event, so steady-state stepping
allocates the heap tuple and nothing else.  It pops first: each popped entry
is compared with a stop time and a step limit fixed on entry (``inf`` and
no limit when unset), and the one entry beyond a bound goes back on the
heap, so a step never peeks at ``heap[0]``.
"""

from __future__ import annotations

import sys
from heapq import heappop, heappush
from math import inf
from typing import TYPE_CHECKING, Any, Callable, List, Optional, Tuple

from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.tracer import Tracer

#: The kernel event tap: ``(sim, time, callback, args) -> None``.
Observer = Callable[["Simulator", float, Callable, tuple], None]


class StopSimulation(Exception):
    """Raised by user code to stop :meth:`Simulator.run` immediately."""


class Simulator:
    """Discrete-event simulator.

    Time is a float in **seconds** throughout the repository (the paper's
    measurements are all in milliseconds; keeping seconds and converting for
    display avoids unit mistakes).
    """

    __slots__ = (
        "_now",
        "_heap",
        "_sequence",
        "_until",
        "steps_executed",
        "tracer",
        "observer",
    )

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._heap: List[Tuple[float, int, Callable, tuple]] = []
        self._sequence = 0
        #: The ``until`` bound of the active :meth:`run` call (``inf`` when
        #: unbounded or idle).  A link packet train advances ``_now`` itself
        #: between heap events, and consults this so as never to pass it.
        self._until = inf
        #: Total callbacks executed over the simulator's lifetime; benchmark
        #: instrumentation (events/second).
        self.steps_executed = 0
        #: The session's :class:`~repro.obs.tracer.Tracer`, or ``None``.  The
        #: kernel never reads it; it rides here because every layer that
        #: emits a lifecycle event already holds the simulator.
        self.tracer: Optional[Tracer] = None
        #: Event-stream tap, called as ``observer(self, time, callback,
        #: args)`` just before each dispatched callback, or ``None``.  An
        #: observer only reads: an observed run keeps the event sequence (and
        #: digests) of an unobserved one.  A session sets it from
        #: ``spec.run(observer=...)``, the one way in for the profiler and
        #: the determinism gate's recorder alike.
        self.observer: Optional[Observer] = None

    # -- time ---------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- scheduling -----------------------------------------------------------
    def schedule_callback(self, delay: float, callback: Callable, *args: Any) -> None:
        """Run ``callback(*args)`` after ``delay`` simulated seconds."""
        if not delay >= 0:  # a NaN delay fails this too
            raise ValueError(f"cannot schedule in the past or at NaN (delay={delay})")
        sequence = self._sequence
        self._sequence = sequence + 1
        heappush(self._heap, (self._now + delay, sequence, callback, args))

    def schedule_at(self, time: float, callback: Callable, *args: Any) -> None:
        """Run ``callback(*args)`` at the absolute simulated ``time``.

        Fires at exactly that float (``now + (time - now)`` need not equal
        ``time``), FIFO among ties like every other scheduling call — for a
        caller that rebuilds a timestamp another event sequence would have
        produced (the parked data-plane sync).
        """
        if not time >= self._now:  # a NaN time fails this too
            raise ValueError(f"cannot schedule in the past or at NaN "
                             f"(time={time}, now={self._now})")
        sequence = self._sequence
        self._sequence = sequence + 1
        heappush(self._heap, (time, sequence, callback, args))

    def event(self, name: str = "") -> Event:
        """Create an untriggered event."""
        return Event(name=name)

    def clear(self) -> None:
        """Drop every scheduled callback.

        The heap is the only place the kernel holds on to the objects it
        drives (bound methods and their arguments); emptied, the simulator
        is a leaf that reference counting can free.
        """
        self._heap.clear()

    # -- introspection ----------------------------------------------------------
    @property
    def pending_count(self) -> int:
        """Number of callbacks currently scheduled on the heap."""
        return len(self._heap)

    @property
    def schedule_sequence(self) -> int:
        """Monotone count of callbacks scheduled over the simulator's lifetime.

        The FIFO tiebreaker counter — deterministic for a fixed seed, so
        deltas between two points in the run are a reproducible measure of
        event-heap churn (what :class:`repro.obs.profiler.Profiler`
        attributes to callback sites).
        """
        return self._sequence

    def stats(self) -> dict:
        """Event-loop counters (benchmark and trace metadata)."""
        return {
            "now": self._now,
            "pending": len(self._heap),
            "steps_executed": self.steps_executed,
            "sequence": self._sequence,
        }

    # -- execution ---------------------------------------------------------------
    def step(self) -> bool:
        """Execute the next scheduled callback.  Returns ``False`` if none are left.

        Single-step API for tests and debugging; :meth:`run` inlines this.
        """
        if not self._heap:
            return False
        time, _seq, callback, args = heappop(self._heap)
        if time < self._now - 1e-12:
            raise RuntimeError("simulation time went backwards (kernel bug)")
        self._now = max(self._now, time)
        self.steps_executed += 1
        if self.observer is not None:
            self.observer(self, time, callback, args)
        callback(*args)
        return True

    def run(self, until: Optional[float] = None, max_steps: Optional[int] = None) -> None:
        """Run until the event heap drains, ``until`` seconds, or ``max_steps`` callbacks.

        Parameters
        ----------
        until:
            Absolute simulated time at which to stop, not before ``now`` and
            not NaN (:class:`ValueError` otherwise, as for
            :meth:`schedule_at`).  Events scheduled at exactly ``until`` are
            still executed, and the clock always ends at ``until`` — even
            when the heap drains earlier, so idle-tail durations are
            reported correctly.
        max_steps:
            Safety valve for tests, at least 0 (:class:`ValueError`
            otherwise); raises :class:`RuntimeError` when one more callback
            than that is due.
        """
        if until is not None and not until >= self._now:  # a NaN bound fails this too
            raise ValueError(f"cannot run until the past or NaN "
                             f"(until={until}, now={self._now})")
        if max_steps is not None and not max_steps >= 0:
            raise ValueError(f"max_steps must be >= 0 (max_steps={max_steps})")
        heap = self._heap
        pop = heappop
        observer = self.observer
        stop = self._until = inf if until is None else until
        limit = sys.maxsize if max_steps is None else max_steps
        steps = 0
        try:
            try:
                while heap:
                    time, sequence, callback, args = pop(heap)
                    if time > stop or steps >= limit:
                        # The one entry beyond a bound goes back as it was.
                        heappush(heap, (time, sequence, callback, args))
                        if time > stop:
                            self._now = stop
                            return
                        raise RuntimeError(
                            f"simulation exceeded max_steps={max_steps}"
                        )
                    if time < self._now:
                        if time < self._now - 1e-12:
                            raise RuntimeError("simulation time went backwards (kernel bug)")
                    else:
                        self._now = time
                    if observer is not None:
                        observer(self, time, callback, args)
                    callback(*args)
                    steps += 1
                # Heap drained before the stop time: idle out the tail.
                if until is not None and until > self._now:
                    self._now = until
            except StopSimulation:
                pass
        finally:
            self.steps_executed += steps
            self._until = inf

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<Simulator now={self._now:.6f} pending={len(self._heap)}>"
