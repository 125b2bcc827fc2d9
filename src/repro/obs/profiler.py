"""The sim-profiler: a kernel observer the caller passes in.

    with Profiler() as profiler:
        spec.run(observer=profiler)
    print(render_profile_report(profiler.report()))

The profiling counterpart of :mod:`repro.obs.tracer`: where the tracer
records *what* the simulation did (rule lifecycles, faults, resyncs), the
profiler records *where the wall time went*, per callback site and per event
class.  It reaches the run the way the determinism gate's recorder does,
through the one ``observer`` argument, so the session engine never names
it and an unprofiled run never touches this module.

The kernel calls the observer immediately before each dispatched callback,
handing it the simulator, so the wall time and the schedule-sequence delta
between two consecutive calls belong to the *earlier* callback: per-site
wall attribution and a deterministic heap-churn count (callbacks scheduled
while the site ran) without touching the kernel loop itself.  Observers only
read; a profiled run computes the same outcome (and digest) as the identical
unprofiled run.  One profiler may observe several runs in turn; their rows
add up.

RL002 (``tests/gates/test_determinism_rules.py``) allowlists this module:
reading ``time.perf_counter`` is the entire point of a profiler, and nothing
it measures feeds back into simulation state.

Inside its ``with`` block the profiler also listens on ``gc.callbacks`` (it
observes the cyclic collector, it never tunes it): a collection pauses
whichever callback happened to allocate last, so its time is taken *out* of
that callback's row and reported as ``gc_s`` / ``gc_collections``
(``[young, middle, full]``) in the totals.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional


@dataclass
class ProfileReport:
    """What a :class:`Profiler` collected (see :meth:`Profiler.report`).

    ``callbacks`` rows carry ``site`` (module-qualified callback name),
    ``calls``, ``wall_s`` (collector pauses excluded) and ``scheduled``
    (callbacks the site scheduled: its event-heap churn).  ``totals`` carry
    ``events``, ``wall_s``, ``scheduled``, ``gc_s`` and ``gc_collections``.
    ``calls``, ``scheduled`` and ``events`` are deterministic for a fixed
    seed; wall and collector numbers are measurements of the host.
    """

    callbacks: List[Dict[str, object]] = field(default_factory=list)
    totals: Dict[str, object] = field(default_factory=dict)

    def __bool__(self) -> bool:
        return bool(self.callbacks)

    def by_class(self) -> List[Dict[str, object]]:
        """Callback rows aggregated by event class (owning class or module).

        ``TrafficGenerator._begin`` and ``TrafficGenerator._emit`` fold into
        one ``TrafficGenerator`` row, as every method of a class does;
        module-level functions fold into their module's last component.  A
        switch hop has no row of its own: it is the link's heap entry, so its
        time is ``Link._flush_train``'s.
        """
        grouped: Dict[str, List[float]] = {}
        for row in self.callbacks:
            parts = str(row["site"]).split(".")
            owner = parts[-2] if len(parts) >= 2 else parts[-1]
            stats = grouped.setdefault(owner, [0, 0.0, 0])
            stats[0] += int(row.get("calls", 0))
            stats[1] += float(row.get("wall_s", 0.0))
            stats[2] += int(row.get("scheduled", 0))
        return [
            {"event_class": owner, "calls": stats[0],
             "wall_s": round(stats[1], 6), "scheduled": stats[2]}
            for owner, stats in sorted(grouped.items())
        ]


class Profiler:
    """Collecting kernel observer; use it as a context manager."""

    def __init__(self) -> None:
        #: callback function object -> its site's ``[calls, wall_s,
        #: scheduled]`` row.  Keyed on the underlying function (``__func__``
        #: for bound methods) so every instance of a class folds into one row.
        self._rows: Dict[object, List] = {}
        #: site label -> row; functions that share a label share the row.
        self._stats: Dict[str, List] = {}
        #: The row and simulator of the callback now running, if any.
        self._pending: Optional[List] = None
        self._sim = None
        self._last_ts = 0.0
        self._last_seq = 0
        self._events = 0
        self._entered = 0.0
        self._wall = 0.0
        self._gc_started = 0.0
        self._gc_s = 0.0
        self._gc_collections = [0, 0, 0]

    def __enter__(self) -> "Profiler":
        gc.callbacks.append(self._on_gc)
        self._entered = perf_counter()
        return self

    def __exit__(self, *_exc) -> None:
        now = perf_counter()
        self._close_pending(now)
        self._wall += now - self._entered
        gc.callbacks.remove(self._on_gc)
        # Hold nothing of the observed sessions past the block.
        self._sim = None
        self._rows.clear()

    def __call__(self, sim, _time: float, callback, _args) -> None:
        """Kernel tap: close out the previous callback, open this one.

        The wall/heap-churn window between two calls is the previous
        callback plus the kernel-loop overhead that followed it.
        """
        now = perf_counter()
        self._close_pending(now)
        func = getattr(callback, "__func__", callback)
        row = self._rows.get(func)
        if row is None:
            site = (f"{getattr(func, '__module__', '?')}."
                    f"{getattr(func, '__qualname__', repr(func))}")
            row = self._rows[func] = self._stats.setdefault(site, [0, 0.0, 0])
        self._pending = row
        self._sim = sim
        self._last_ts = now
        self._last_seq = sim.schedule_sequence
        self._events += 1

    def _on_gc(self, phase: str, info: Dict[str, int]) -> None:
        """``gc.callbacks`` listener: time each collection, and move the
        pause out of the window of the callback it interrupted."""
        if phase == "start":
            self._gc_started = perf_counter()
            return
        pause = perf_counter() - self._gc_started
        self._gc_s += pause
        self._gc_collections[info["generation"]] += 1
        self._last_ts += pause

    def _close_pending(self, now: float) -> None:
        row = self._pending
        if row is None:
            return
        row[0] += 1
        row[1] += now - self._last_ts
        row[2] += self._sim.schedule_sequence - self._last_seq
        self._pending = None

    def report(self) -> ProfileReport:
        """The attribution collected so far, as a :class:`ProfileReport`."""
        return ProfileReport(
            callbacks=[
                {"site": site, "calls": stats[0],
                 "wall_s": round(stats[1], 6), "scheduled": stats[2]}
                for site, stats in sorted(self._stats.items())
            ],
            totals={
                "events": self._events,
                "wall_s": round(self._wall, 6),
                "scheduled": sum(stats[2] for stats in self._stats.values()),
                "gc_s": round(self._gc_s, 6),
                "gc_collections": list(self._gc_collections),
            },
        )
