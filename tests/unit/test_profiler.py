"""Tests for the deterministic sim-profiler: a kernel observer the caller
passes in as ``spec.run(observer=...)`` inside a ``with`` block.  Its
lifecycle (the collector tap lives only inside the block, even when the
session crashes), the disarmed kernel path, attribution through toy
simulations and real sessions, digest transparency (a profiled run digests
identically to its unprofiled twin), the collector split, and the
hot-callback rendering."""

import dataclasses
import gc
import tracemalloc
from collections import Counter

import pytest

from repro.analysis.profile import (
    hot_callbacks,
    render_profile_report,
)
from repro.core.techniques.general import GeneralProbingTechnique
from repro.obs import ProfileReport, Profiler
from repro.scenarios import ScenarioParams, run_scenario, scenario_session
from repro.session import engine
from repro.session.record import RunRecord
from repro.session.spec import SessionKnobs
from repro.sim.kernel import Simulator


def _collector_listeners():
    """Profiler methods currently registered on ``gc.callbacks``."""
    return [callback for callback in gc.callbacks
            if isinstance(getattr(callback, "__self__", None), Profiler)]


def _quick_params(**overrides):
    defaults = dict(flow_count=2, warmup=0.1, grace=0.2,
                    max_update_duration=5.0, seed=7)
    defaults.update(overrides)
    return ScenarioParams(**defaults)


def _profiled(scenario="path-migration", technique="general", **params):
    """One scenario run under a fresh profiler: ``(record, report)``."""
    with Profiler() as profiler:
        record = scenario_session(scenario, technique,
                                  _quick_params(**params)).run(observer=profiler)
    return record, profiler.report()


# ---------------------------------------------------------------------------
# Disarmed path
# ---------------------------------------------------------------------------

class TestDisarmedPath:
    def test_disarmed_hot_path_allocates_nothing(self):
        """With no observer the kernel's tap is one ``None`` test per step:
        10 000 self-rescheduling steps keep nothing allocated."""
        sim = Simulator()

        def tick():
            sim.schedule_callback(0.001, tick)

        sim.schedule_callback(0.0, tick)
        sim.run(until=0.1)  # warm up any lazy interpreter state
        gc.collect()
        steps = sim.steps_executed
        tracemalloc.start()
        try:
            baseline = tracemalloc.get_traced_memory()[0]
            sim.run(until=10.1)
            grown = tracemalloc.get_traced_memory()[0] - baseline
        finally:
            tracemalloc.stop()
        assert sim.observer is None
        assert sim.steps_executed - steps >= 9_999
        assert grown < 512, f"disarmed kernel path leaked {grown} bytes"

    def test_bare_session_never_builds_a_profiler(self, monkeypatch):
        # The engine does not name the profiler; only a caller builds one.
        assert not hasattr(engine, "Profiler")
        built = Counter()
        init = Profiler.__init__

        def counted(self):
            built["profilers"] += 1
            init(self)

        monkeypatch.setattr(Profiler, "__init__", counted)
        record = run_scenario("path-migration", "general", _quick_params())
        assert record.completed and built["profilers"] == 0
        assert _collector_listeners() == []
        assert not tracemalloc.is_tracing()


# ---------------------------------------------------------------------------
# Lifecycle: the caller's observer, the collector tap inside the block
# ---------------------------------------------------------------------------

class TestInstall:
    def test_a_simulator_has_one_observer_slot(self, monkeypatch):
        simulators = []

        def simulator():
            simulators.append(Simulator())
            return simulators[-1]

        monkeypatch.setattr(engine, "Simulator", simulator)
        with Profiler() as profiler:
            scenario_session("path-migration", "general",
                             _quick_params()).run(observer=profiler)
        # The session's one observer argument is its simulator's one slot.
        (sim,) = simulators
        assert sim.observer is profiler
        assert profiler.report().totals["events"] == sim.steps_executed

    def test_uninstall_detaches_a_live_kernel_observer(self):
        sim = Simulator()
        with Profiler() as profiler:
            assert _collector_listeners() == [profiler._on_gc]
            sim.observer = profiler
            sim.schedule_callback(0.1, lambda: None)
            sim.run()
            assert profiler._sim is sim
        # The block's exit removes the collector tap and lets go of the run.
        assert _collector_listeners() == []
        assert profiler._sim is None and profiler._rows == {}
        assert profiler.report().totals["events"] == 1

    def test_crashing_session_leaves_no_kernel_observer(self):
        def boom(_network, _flows):
            raise RuntimeError("boom")

        spec = dataclasses.replace(
            scenario_session("path-migration", "general", _quick_params()),
            plan_builder=boom)
        with pytest.raises(RuntimeError, match="boom"):
            with Profiler() as profiler:
                spec.run(observer=profiler)
        assert _collector_listeners() == []
        assert profiler._sim is None
        # ... so the next profiled session can arm again.
        _record, report = _profiled()
        assert report


# ---------------------------------------------------------------------------
# Attribution on a toy simulation
# ---------------------------------------------------------------------------

def _toy_run():
    """One deterministic toy sim under a fresh profiler; returns its report."""
    def ping():
        sim.schedule_callback(0.1, pong)

    def pong():
        pass

    sim = Simulator()
    with Profiler() as profiler:
        sim.observer = profiler
        for index in range(5):
            sim.schedule_callback(0.05 * (index + 1), ping)
        sim.run(until=2.0)
    return profiler.report()


class TestAttribution:
    def test_counts_are_deterministic_and_attributed_per_site(self):
        report = _toy_run()
        sites = {row["site"]: row for row in report.callbacks}
        ping_row = next(row for site, row in sites.items()
                        if site.endswith("ping"))
        pong_row = next(row for site, row in sites.items()
                        if site.endswith("pong"))
        assert ping_row["calls"] == 5
        assert pong_row["calls"] == 5
        # Heap churn: each ping schedules exactly one pong; pong is a leaf.
        assert ping_row["scheduled"] == 5
        assert pong_row["scheduled"] == 0
        assert report.totals["events"] == 10

    def test_two_identical_runs_agree_on_all_deterministic_fields(self):
        first, second = _toy_run(), _toy_run()
        strip = lambda report: [
            {key: row[key] for key in ("site", "calls", "scheduled")}
            for row in report.callbacks
        ]
        assert strip(first) == strip(second)
        assert first.totals["events"] == second.totals["events"]

    def test_one_profiler_adds_up_the_sessions_it_observes(self, monkeypatch):
        simulators = []

        def simulator():
            simulators.append(Simulator())
            return simulators[-1]

        monkeypatch.setattr(engine, "Simulator", simulator)
        with Profiler() as profiler:
            for technique in ("general", "barrier"):
                scenario_session("path-migration", technique,
                                 _quick_params()).run(observer=profiler)
        totals = profiler.report().totals
        assert totals["events"] == sum(sim.steps_executed for sim in simulators)
        # Each session's churn is read on its own simulator.
        _record, general = _profiled(technique="general")
        _record, barrier = _profiled(technique="barrier")
        assert totals["scheduled"] == (general.totals["scheduled"]
                                       + barrier.totals["scheduled"])

    def test_a_probe_tick_is_booked_to_its_own_method(self, monkeypatch):
        record, report = _profiled()
        calls = {str(row["site"]): row["calls"] for row in report.callbacks}
        booked = calls[f"{GeneralProbingTechnique.__module__}."
                       f"{GeneralProbingTechnique._probe_tick.__qualname__}"]
        # The ticks the session ran, counted on its bare twin.
        ticks = Counter()
        tick = GeneralProbingTechnique._probe_tick

        def counted(technique):
            ticks["ran"] += 1
            tick(technique)

        monkeypatch.setattr(GeneralProbingTechnique, "_probe_tick", counted)
        bare = run_scenario("path-migration", "general", _quick_params())
        assert bare.digest() == record.digest()
        assert booked == ticks["ran"] > 10

    def test_a_collection_is_counted_and_leaves_the_callback_row(self):
        def hoard():
            # Garbage only a collection frees, and a full one to free it.
            for _ in range(2000):
                cycle = []
                cycle.append(cycle)
            gc.collect()

        def idle():
            pass

        sim = Simulator()
        with Profiler() as profiler:
            sim.observer = profiler
            sim.schedule_callback(0.1, hoard)
            sim.schedule_callback(0.2, idle)
            sim.run()
        report = profiler.report()
        totals = report.totals
        assert totals["gc_collections"][2] >= 1
        assert 0.0 < totals["gc_s"] <= totals["wall_s"]
        # The pause is reported once: not again inside the row of the
        # callback it interrupted.
        rows = sum(row["wall_s"] for row in report.callbacks)
        assert rows + totals["gc_s"] <= totals["wall_s"] + 1e-5
        # Outside the block the collector is not observed.
        gc.collect()
        assert profiler.report().totals == totals

    def test_by_class_folds_sites_into_owners(self):
        report = ProfileReport(callbacks=[
            {"site": "repro.sim.kernel.Simulator._fire", "calls": 2,
             "wall_s": 0.5, "scheduled": 3},
            {"site": "repro.sim.kernel.Simulator._step", "calls": 1,
             "wall_s": 0.25, "scheduled": 1},
            {"site": "toy.ping", "calls": 4, "wall_s": 0.1, "scheduled": 0},
        ])
        classes = {row["event_class"]: row for row in report.by_class()}
        assert classes["Simulator"]["calls"] == 3
        assert classes["Simulator"]["scheduled"] == 4
        assert classes["toy"]["calls"] == 4


# ---------------------------------------------------------------------------
# Profiled sessions: the observer route and digest transparency
# ---------------------------------------------------------------------------

class TestProfiledSession:
    def test_profiled_run_carries_a_report_and_restores_globals(self):
        record, report = _profiled()
        assert record.completed
        assert report.totals["events"] > 100
        assert report.callbacks
        assert _collector_listeners() == []
        assert not tracemalloc.is_tracing()

    def test_profile_off_runs_omit_the_key_entirely(self):
        # There is no profile knob to set, and no record field to fill.
        for schema in (SessionKnobs, ScenarioParams, RunRecord):
            assert "profile" not in {f.name for f in dataclasses.fields(schema)}
        record = run_scenario("path-migration", "general", _quick_params())
        assert "profile" not in record.as_dict()
        assert "profile" not in record.spec["knobs"]
        assert "profile" not in record.spec["labels"]["params"]

    def test_profiled_and_unprofiled_runs_digest_identically(self):
        profiled, report = _profiled()
        bare = run_scenario("path-migration", "general", _quick_params())
        assert profiled.digest() == bare.digest()
        assert profiled.outcome() == bare.outcome()
        assert profiled.dropped_packets == bare.dropped_packets
        assert profiled.update_duration == bare.update_duration
        # The collector readings ride on the report, nowhere in the record.
        totals = report.totals
        assert totals["gc_s"] >= 0.0 and len(totals["gc_collections"]) == 3
        # Xids included: each session numbers its own.
        assert profiled.as_dict() == bare.as_dict()


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

class TestRendering:
    def test_hot_callbacks_rank_by_wall_with_stable_ties(self):
        report = ProfileReport(callbacks=[
            {"site": "b", "calls": 1, "wall_s": 0.1, "scheduled": 0},
            {"site": "a", "calls": 9, "wall_s": 0.3, "scheduled": 0},
            {"site": "c", "calls": 5, "wall_s": 0.1, "scheduled": 0},
        ], totals={"events": 15, "wall_s": 0.5, "scheduled": 0})
        ranked = [row["site"] for row in hot_callbacks(report, top=2)]
        # c outranks b on the call-count tiebreak at equal wall.
        assert ranked == ["a", "c"]

    def test_render_names_the_top_sites_and_phases(self):
        _record, report = _profiled()
        text = render_profile_report(report, top=5)
        assert text.startswith(f"Profile — {report.totals['events']} events")
        assert "Top 5 hot callbacks" in text and "Event classes" in text
        assert "collector " in text and "collections" in text
        # The hop is booked to the link whose heap entry it is and the
        # source to its own callback — never to the kernel.
        assert "net.link.Link._flush_train" in text
        assert "net.traffic.TrafficGenerator._emit" in text
        assert "sim.kernel" not in text

    def test_empty_report_renders_a_placeholder(self):
        assert "empty profile" in render_profile_report(ProfileReport())
