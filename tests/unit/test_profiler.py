"""Tests for the deterministic sim-profiler: the engine-owned lifecycle (it
claims its simulator's one observer slot and clears it, even when the
session crashes),
the allocation-free disarmed path, kernel-observer attribution through toy
simulations and a real profiled session, profile-off digest transparency
(a profiled run digests identically to its unprofiled twin), the collector
tap (armed only between attach and detach; pauses leave the callback rows),
the report round-trip, and the hot-callback rendering."""

import dataclasses
import gc
import json
import tracemalloc
from collections import Counter

import pytest

from repro.analysis.profile import (
    hot_callbacks,
    render_profile_report,
)
from repro.core.techniques.general import GeneralProbingTechnique
from repro.experiments.common import RuleInstallParams, rule_install_session
from repro.obs import ProfileReport, Profiler
from repro.scenarios import ScenarioParams, run_scenario, scenario_session
from repro.session import engine
from repro.session.record import RunRecord
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


# ---------------------------------------------------------------------------
# Disarmed path
# ---------------------------------------------------------------------------

class TestDisarmedPath:
    def test_disarmed_hot_path_allocates_nothing(self):
        """The engine's phase-marker pattern must be allocation-free when no
        profiler was armed — the zero-cost-when-disarmed contract."""
        profiler = None

        def hot_site(iterations):
            for _ in range(iterations):
                if profiler is not None:
                    profiler.phase("update")

        hot_site(100)  # warm up any lazy interpreter state
        gc.collect()
        tracemalloc.start()
        try:
            baseline = tracemalloc.get_traced_memory()[0]
            hot_site(10_000)
            grown = tracemalloc.get_traced_memory()[0] - baseline
        finally:
            tracemalloc.stop()
        assert grown < 512, f"disarmed profile path leaked {grown} bytes"

    def test_bare_session_never_builds_a_profiler(self, monkeypatch):
        def refuse(*_args, **_kwargs):
            raise AssertionError("an unprofiled session built a Profiler")

        monkeypatch.setattr(engine, "Profiler", refuse)
        record = run_scenario("path-migration", "general", _quick_params())
        assert record.profile is None
        assert not tracemalloc.is_tracing()


# ---------------------------------------------------------------------------
# Attach / detach: the profiler claims its simulator's one observer slot
# ---------------------------------------------------------------------------

class TestInstall:
    def test_a_simulator_has_one_observer_slot(self):
        sim = Simulator()
        outer, inner = Profiler(), Profiler()
        outer.attach(sim)
        try:
            with pytest.raises(RuntimeError, match="already has an event observer"):
                inner.attach(sim)
            # Another simulator has a slot of its own.
            inner.attach(Simulator())
            inner.detach()
        finally:
            outer.detach()
        assert sim.observer is None
        inner.attach(sim)
        inner.detach()

    def test_uninstall_detaches_a_live_kernel_observer(self):
        sim = Simulator()
        pr = Profiler()
        pr.attach(sim)
        assert sim.observer == pr._observe
        assert _collector_listeners() == [pr._on_gc]
        pr.detach()
        pr.detach()  # idempotent: finish() and the engine both call it
        assert sim.observer is None
        assert _collector_listeners() == []
        assert not tracemalloc.is_tracing()

    def test_attach_refuses_a_second_simulator(self):
        pr = Profiler()
        pr.attach(Simulator())
        try:
            with pytest.raises(RuntimeError, match="already attached"):
                pr.attach(Simulator())
        finally:
            pr.detach()

    def test_crashing_session_leaves_no_kernel_observer(self, monkeypatch):
        simulators = []

        def simulator():
            simulators.append(Simulator())
            return simulators[-1]

        def boom(_network, _flows):
            raise RuntimeError("boom")

        monkeypatch.setattr(engine, "Simulator", simulator)
        spec = dataclasses.replace(
            scenario_session("path-migration", "general",
                             _quick_params(profile=True)),
            plan_builder=boom)
        with pytest.raises(RuntimeError, match="boom"):
            spec.run()
        assert simulators[0].observer is None
        assert _collector_listeners() == []
        assert not tracemalloc.is_tracing()
        # ... so the next profiled session can arm again.
        assert run_scenario("path-migration", "general",
                            _quick_params(profile=True)).profile


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
    pr = Profiler(technique="toy", kind="unit", seed=3)
    pr.attach(sim)
    try:
        for index in range(5):
            sim.schedule_callback(0.05 * (index + 1), ping)
        pr.phase("drive")
        sim.run(until=2.0)
    finally:
        report = pr.finish(meta={"toy": True})
    return report


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

    def test_phases_record_wall_events_and_memory(self):
        report = _toy_run()
        assert [row["name"] for row in report.phases] == ["drive"]
        drive = report.phases[0]
        assert drive["events"] == 10
        assert drive["wall_s"] >= 0.0
        # attach() started tracemalloc, so the memory split must be present.
        assert "alloc_kb" in drive and "peak_kb" in drive

    def test_a_probe_tick_is_booked_to_its_own_method(self, monkeypatch):
        record = run_scenario("path-migration", "general",
                              _quick_params(profile=True))
        calls = {str(row["site"]): row["calls"] for row in record.profile.callbacks}
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
        pr = Profiler()
        pr.attach(sim)
        try:
            sim.schedule_callback(0.1, hoard)
            sim.schedule_callback(0.2, idle)
            pr.phase("quiet")
            sim.run(until=0.05)
            pr.phase("collecting")
            sim.run()
        finally:
            report = pr.finish()
        quiet, collecting = report.phases
        assert quiet["gc_collections"][2] == 0
        assert collecting["gc_collections"][2] >= 1
        assert report.totals["gc_collections"] == [
            before + during for before, during
            in zip(quiet["gc_collections"], collecting["gc_collections"])]
        assert 0.0 < collecting["gc_s"] <= collecting["wall_s"]
        assert report.totals["gc_s"] == pytest.approx(
            quiet["gc_s"] + collecting["gc_s"], abs=2e-6)
        # The pause is reported once: not again inside the row of the
        # callback it interrupted.
        rows = sum(row["wall_s"] for row in report.callbacks)
        assert rows + report.totals["gc_s"] <= report.totals["wall_s"] + 1e-5

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
# Profiled sessions: arming, digest transparency, round-trip
# ---------------------------------------------------------------------------

class TestProfiledSession:
    def test_profiled_run_carries_a_report_and_restores_globals(self):
        record = run_scenario("path-migration", "general",
                              _quick_params(profile=True))
        assert record.profile is not None
        assert record.profile.kind == "scenario"
        assert record.profile.totals["events"] > 100
        assert record.profile.callbacks
        assert [row["name"] for row in record.profile.phases] == [
            "setup", "update", "drain", "analyze"]
        assert _collector_listeners() == []
        assert not tracemalloc.is_tracing()

    def test_profile_off_runs_omit_the_key_entirely(self):
        record = run_scenario("path-migration", "general", _quick_params())
        assert record.profile is None
        assert "profile" not in record.as_dict()
        assert "profile" not in record.spec["knobs"]

    def test_profiled_and_unprofiled_runs_digest_identically(self):
        profiled = run_scenario("path-migration", "general",
                                _quick_params(profile=True))
        bare = run_scenario("path-migration", "general", _quick_params())
        assert profiled.digest() == bare.digest()
        assert profiled.outcome() == bare.outcome()
        assert profiled.dropped_packets == bare.dropped_packets
        assert profiled.update_duration == bare.update_duration
        # The collector readings ride on the observation, per phase and in
        # total, and nowhere in what is digested.
        totals = profiled.profile.totals
        assert totals["gc_s"] >= 0.0 and len(totals["gc_collections"]) == 3
        assert [sum(generation) for generation in zip(
            *(row["gc_collections"] for row in profiled.profile.phases))
        ] == totals["gc_collections"]
        assert "gc_s" not in json.dumps(profiled.outcome())

    def test_a_profiled_rule_install_counts_what_the_generator_agent_did(self):
        spec = rule_install_session(
            "barrier", RuleInstallParams.quick(rule_count=60, max_unconfirmed=20))
        record = dataclasses.replace(
            spec, knobs=dataclasses.replace(spec.knobs, profile=True)).run()
        assert record.digest() == "86b1ff3923f84538"
        # Pinned on the generator agent (``_main_loop`` fed by a ``Queue``):
        # the callback chain is the same heap entries under other names.
        assert record.profile.totals["events"] == 605
        assert record.profile.totals["scheduled"] == 581
        agent = {str(row["site"]).rsplit(".", 1)[-1]: row["calls"]
                 for row in record.profile.callbacks
                 if ".ControlPlane." in str(row["site"])}
        assert agent["_finish_flowmod"] == agent["_sync_apply"] == 60
        assert agent["_begin"] == 60 + agent["_finish_barrier"] > 60
        assert sorted(agent) == ["_begin", "_finish_barrier", "_finish_flowmod",
                                 "_next_message", "_sync_apply", "_sync_step"]

    def test_a_profiled_migration_books_the_hop_to_the_link_and_the_source_to_emit(
            self, monkeypatch):
        simulators = []

        def simulator():
            simulators.append(Simulator())
            return simulators[-1]

        monkeypatch.setattr(engine, "Simulator", simulator)
        params = dict(topology="fat-tree", flow_count=4, rate_pps=200.0)
        profiled = run_scenario("path-migration", "general",
                                _quick_params(profile=True, **params))
        bare = run_scenario("path-migration", "general", _quick_params(**params))
        assert profiled.digest() == bare.digest() == "9ba02c8b533abdbf"
        calls = {str(row["site"]): row["calls"] for row in profiled.profile.callbacks}
        # A switch hop is the link's heap entry and nothing else: forwarding
        # is no kernel callback site, and the traffic source no generator.
        assert not [site for site in calls
                    if site.endswith(("Switch._forward", "Switch.receive_packet"))
                    or "_flow_process" in site]
        sent = sum(stat.packets_sent for stat in profiled.stats)
        assert calls["repro.net.traffic.TrafficGenerator._begin"] == 4
        # One entry per packet sent, and one per flow that finds it has stopped.
        assert calls["repro.net.traffic.TrafficGenerator._emit"] == sent + 4 == 324
        assert calls["repro.net.link.Link._flush_train"] > 5 * sent
        # Armed or bare, every kernel step is an observed event.
        armed_sim, bare_sim = simulators
        assert (profiled.profile.totals["events"] == armed_sim.steps_executed
                == bare_sim.steps_executed
                == profiled.profile.meta["kernel"]["steps_executed"])

    def test_record_round_trips_through_json_with_its_profile(self):
        record = run_scenario("path-migration", "general",
                              _quick_params(profile=True))
        payload = json.loads(json.dumps(record.as_dict()))
        rebuilt = RunRecord.from_dict(payload)
        assert rebuilt.profile == record.profile
        assert rebuilt.digest() == record.digest()


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
        record = run_scenario("path-migration", "general",
                              _quick_params(profile=True))
        text = render_profile_report(record.profile, top=5)
        assert "Profile — scenario/general seed=7" in text
        assert "Phases" in text and "Top 5 hot callbacks" in text
        assert "collector " in text and "gc [ms]" in text and "collections" in text
        assert "Event classes" in text
        # The hop is booked to the link whose heap entry it is and the
        # source to its own callback — never to the kernel.
        assert "net.link.Link._flush_train" in text
        assert "net.traffic.TrafficGenerator._emit" in text
        assert "sim.kernel" not in text

    def test_empty_report_renders_a_placeholder(self):
        assert "empty profile" in render_profile_report(ProfileReport())
