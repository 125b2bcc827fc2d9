"""The sim-profiler: an object the session engine owns.

The profiling counterpart of :mod:`repro.obs.tracer`: where the tracer
records *what* the simulation did (rule lifecycles, faults, resyncs), the
profiler records *where the wall time went* — per callback site, per event
class, per session phase — which is the attribution the ROADMAP's
"array-batched simulation kernel" item needs before any kernel rewrite can
claim a win.

There is no process-global profiler.  Session phases are only ever marked
by :func:`repro.session.engine._run_session`, which already holds the
:class:`Profiler` it armed (or ``None``), so a phase marker is
``if profiler is not None: profiler.phase("update")`` and an unprofiled run
never touches this module.

An armed :class:`Profiler` takes its simulator's event-tap slot
(``sim.observer``): the observer fires
immediately before each dispatched callback, so the wall time and the
schedule-sequence delta between two consecutive observer calls belong to
the *earlier* callback — per-site wall attribution and a deterministic
heap-churn count (callbacks scheduled while the site ran) without touching
the kernel loop itself.  Observers only read; a profiled run computes the
same outcome (and digest) as the identical unprofiled run.

RL002 (``tests/gates/test_determinism_rules.py``) allowlists this module:
reading ``time.perf_counter`` and ``tracemalloc`` is the entire point of a
profiler, and nothing it measures feeds back into simulation state.

While attached the profiler also listens on ``gc.callbacks`` (it observes
the cyclic collector, it never tunes it): a collection pauses whichever
callback happened to allocate last, so its time is taken *out* of that
callback's row and reported as ``gc_s`` / ``gc_collections`` (``[young,
middle, full]``) per phase and in the totals.
"""

from __future__ import annotations

import gc
import tracemalloc
from time import perf_counter
from typing import Dict, List, Optional


class ProfileReport:
    """The frozen output of one profiled session.

    ``callbacks`` rows carry ``site`` (module-qualified callback name),
    ``calls``, ``wall_s`` (collector pauses excluded) and ``scheduled``
    (callbacks the site scheduled — its event-heap churn).  ``phases`` rows
    carry ``name``, ``wall_s``, ``events``, ``gc_s``/``gc_collections`` (the
    collector's share of ``wall_s``, and collections per generation) and —
    when tracemalloc was live — ``alloc_kb``/``peak_kb`` memory splits.
    ``calls``, ``scheduled`` and ``events`` are deterministic for a fixed
    seed; wall, collector and memory numbers are measurements of the host,
    which is why the report is an observation that
    :meth:`repro.session.record.RunRecord.outcome` never includes.
    """

    def __init__(self, technique: str = "", kind: str = "",
                 seed: Optional[int] = None,
                 callbacks: Optional[List[Dict[str, object]]] = None,
                 phases: Optional[List[Dict[str, object]]] = None,
                 totals: Optional[Dict[str, object]] = None,
                 meta: Optional[Dict[str, object]] = None) -> None:
        self.technique = technique
        self.kind = kind
        self.seed = seed
        self.callbacks = list(callbacks or [])
        self.phases = list(phases or [])
        self.totals = dict(totals or {})
        self.meta = dict(meta or {})

    def __bool__(self) -> bool:
        return bool(self.callbacks or self.phases or self.totals)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProfileReport):
            return NotImplemented
        return self.as_dict() == other.as_dict()

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

    def as_dict(self) -> Dict[str, object]:
        """Canonical JSON-able form; :meth:`from_dict` round-trips it."""
        payload: Dict[str, object] = {
            "technique": self.technique,
            "kind": self.kind,
            "seed": self.seed,
            "callbacks": [dict(row) for row in self.callbacks],
            "phases": [dict(row) for row in self.phases],
            "totals": dict(self.totals),
        }
        if self.meta:
            payload["meta"] = dict(self.meta)
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "ProfileReport":
        return cls(
            technique=payload.get("technique", ""),
            kind=payload.get("kind", ""),
            seed=payload.get("seed"),
            callbacks=list(payload.get("callbacks") or []),
            phases=list(payload.get("phases") or []),
            totals=dict(payload.get("totals") or {}),
            meta=dict(payload.get("meta") or {}),
        )


class Profiler:
    """Collecting profiler: attaches to a simulator's event-observer hook."""

    def __init__(self, technique: str = "", kind: str = "",
                 seed: Optional[int] = None) -> None:
        self.technique = technique
        self.kind = kind
        self.seed = seed
        self._sim = None
        #: callback function object -> module-qualified site label.  Keyed on
        #: the underlying function (``__func__`` for bound methods) so every
        #: instance of a class folds into one site.
        self._sites: Dict[object, str] = {}
        #: site -> [calls, wall_s, scheduled]
        self._stats: Dict[str, List] = {}
        self._phases: List[Dict[str, object]] = []
        self._phase_name: Optional[str] = None
        self._phase_started = 0.0
        self._phase_events_start = 0
        self._phase_mem_start = 0
        self._phase_gc_start = (0.0, [0, 0, 0])
        self._gc_started = 0.0
        self._gc_s = 0.0
        self._gc_collections = [0, 0, 0]
        self._pending_site: Optional[str] = None
        self._last_ts = 0.0
        self._last_seq = 0
        self._events = 0
        self._attached_ts: Optional[float] = None
        self._total_wall = 0.0
        self._own_tracemalloc = False

    # -- lifecycle -----------------------------------------------------------
    def attach(self, sim) -> None:
        """Start observing ``sim``'s event stream: claim ``sim.observer``.

        Must run before the session's first ``sim.run(...)`` call:
        :meth:`repro.sim.kernel.Simulator.run` binds the observer locally at
        entry.  A simulator has one observer slot, so attaching to one that
        already has an observer raises.  Starts ``tracemalloc`` for the
        per-phase memory splits unless an outer consumer is already tracing.
        """
        if self._sim is not None:
            raise RuntimeError("profiler is already attached to a simulator")
        if sim.observer is not None:
            raise RuntimeError("the simulator already has an event observer; "
                               "a session is profiled or recorded, not both")
        self._sim = sim
        sim.observer = self._observe
        gc.callbacks.append(self._on_gc)
        self._own_tracemalloc = not tracemalloc.is_tracing()
        if self._own_tracemalloc:
            tracemalloc.start()
        self._attached_ts = perf_counter()
        self._last_ts = self._attached_ts
        self._last_seq = sim.schedule_sequence

    def detach(self) -> None:
        """Stop observing and clear ``sim.observer``; idempotent (``finish``
        and the engine both call it)."""
        if self._sim is None:
            return
        now = perf_counter()
        self._close_pending(now)
        self._close_phase(now)
        if self._attached_ts is not None:
            self._total_wall += now - self._attached_ts
            self._attached_ts = None
        self._sim.observer = None
        gc.callbacks.remove(self._on_gc)
        if self._own_tracemalloc and tracemalloc.is_tracing():
            tracemalloc.stop()
        self._own_tracemalloc = False
        self._sim = None

    # -- emission ------------------------------------------------------------
    def phase(self, name: str) -> None:
        """Open the named phase, closing the previous one."""
        now = perf_counter()
        self._close_phase(now)
        self._phase_name = name
        self._phase_started = now
        self._phase_events_start = self._events
        self._phase_gc_start = (self._gc_s, list(self._gc_collections))
        if tracemalloc.is_tracing():
            self._phase_mem_start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()

    # -- the kernel observer ---------------------------------------------------
    def _observe(self, time: float, callback, args) -> None:
        """Kernel tap: close out the previous callback, open this one.

        The wall/heap-churn window between two observer firings is the
        previous callback plus the kernel-loop overhead that followed it —
        exactly the cost an array-batched kernel could remove.
        """
        now = perf_counter()
        seq = self._sim.schedule_sequence
        self._close_pending(now, seq)
        func = getattr(callback, "__func__", callback)
        site = self._sites.get(func)
        if site is None:
            site = (f"{getattr(func, '__module__', '?')}."
                    f"{getattr(func, '__qualname__', repr(func))}")
            self._sites[func] = site
        self._pending_site = site
        self._last_ts = now
        self._last_seq = seq
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

    def _close_pending(self, now: float, seq: Optional[int] = None) -> None:
        site = self._pending_site
        if site is None:
            return
        if seq is None:
            seq = self._sim.schedule_sequence if self._sim is not None else self._last_seq
        stats = self._stats.get(site)
        if stats is None:
            stats = self._stats[site] = [0, 0.0, 0]
        stats[0] += 1
        stats[1] += now - self._last_ts
        stats[2] += seq - self._last_seq
        self._pending_site = None

    def _close_phase(self, now: float) -> None:
        if self._phase_name is None:
            return
        row: Dict[str, object] = {
            "name": self._phase_name,
            "wall_s": round(now - self._phase_started, 6),
            "events": self._events - self._phase_events_start,
            "gc_s": round(self._gc_s - self._phase_gc_start[0], 6),
            "gc_collections": [now_n - then_n for now_n, then_n in
                               zip(self._gc_collections, self._phase_gc_start[1])],
        }
        if tracemalloc.is_tracing():
            current, peak = tracemalloc.get_traced_memory()
            row["alloc_kb"] = round((current - self._phase_mem_start) / 1024.0, 1)
            row["peak_kb"] = round(peak / 1024.0, 1)
        self._phases.append(row)
        self._phase_name = None

    # -- output ----------------------------------------------------------------
    def finish(self, meta: Optional[dict] = None) -> ProfileReport:
        """Detach and freeze the attribution into a :class:`ProfileReport`."""
        self.detach()
        callbacks = [
            {"site": site, "calls": stats[0],
             "wall_s": round(stats[1], 6), "scheduled": stats[2]}
            for site, stats in sorted(self._stats.items())
        ]
        totals = {
            "events": self._events,
            "wall_s": round(self._total_wall, 6),
            "scheduled": sum(stats[2] for stats in self._stats.values()),
            "gc_s": round(self._gc_s, 6),
            "gc_collections": list(self._gc_collections),
        }
        return ProfileReport(
            technique=self.technique,
            kind=self.kind,
            seed=self.seed,
            callbacks=callbacks,
            phases=list(self._phases),
            totals=totals,
            meta=dict(meta or {}),
        )
