"""Tests for the campaign grid, runner (incl. resume through the store) and
report."""

import json
import logging

import pytest

from repro.campaign import (
    CampaignCell,
    CampaignRunner,
    CampaignSpec,
    load_records,
    run_cell,
)
from repro.campaign.report import aggregate, render_report
from repro.campaign.runner import run_cells_chunk
from repro.store import RunStore


def _tiny_spec(**overrides):
    defaults = dict(
        scenarios=["path-migration"],
        techniques=["barrier", "general"],
        scales=[1],
        seeds=[1, 2],
        flow_count=2,
        max_update_duration=5.0,
    )
    defaults.update(overrides)
    return CampaignSpec(**defaults)


class TestGrid:
    def test_cross_product(self):
        spec = _tiny_spec(techniques=["barrier", "general", "timeout"],
                          seeds=[1, 2])
        cells = spec.cells()
        assert len(cells) == 6
        assert len({cell.cell_id for cell in cells}) == 6

    def test_cell_id_stable_and_config_sensitive(self):
        cell = CampaignCell(scenario="path-migration", technique="general")
        again = CampaignCell(scenario="path-migration", technique="general")
        other = CampaignCell(scenario="path-migration", technique="general",
                             seed=99)
        assert cell.cell_id == again.cell_id
        assert cell.cell_id != other.cell_id

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError):
            _tiny_spec(scenarios=["nope"]).cells()

    def test_unknown_technique_rejected(self):
        with pytest.raises(ValueError, match="unknown technique"):
            _tiny_spec(techniques=["barier"]).cells()

    def test_no_wait_technique_accepted(self):
        assert _tiny_spec(techniques=["no-wait"]).cells()

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError):
            _tiny_spec(techniques=[]).cells()


class TestRunCell:
    def test_ok_record(self):
        cell = CampaignCell(scenario="path-migration", technique="general",
                            flow_count=2, max_update_duration=5.0)
        record = run_cell(cell)
        assert record["status"] == "ok"
        assert record["cell_id"] == cell.cell_id
        assert record["config"]["scenario"] == "path-migration"
        json.dumps(record)  # must be JSON-able

    def test_error_isolated(self):
        cell = CampaignCell(scenario="ecmp-rebalance", technique="general",
                            topology="triangle")
        record = run_cell(cell)
        assert record["status"] == "error"
        assert "error" in record


class TestRunnerResume:
    """Resume is a store cache hit; the results file holds one invocation."""

    def test_full_run_then_resume_skips_everything(self, tmp_path):
        results = tmp_path / "results.jsonl"
        store = RunStore(tmp_path / "store")
        runner = CampaignRunner(_tiny_spec(), results, max_workers=2,
                                cache=store)
        outcome = runner.run()
        assert outcome.ran == 4
        assert outcome.cached == 0
        assert outcome.failed == 0
        assert len(results.read_text().splitlines()) == 4

        again = CampaignRunner(_tiny_spec(), results, max_workers=2,
                               cache=store).run()
        assert again.ran == 0
        assert again.cached == 4
        assert len(results.read_text().splitlines()) == 4

    def test_resume_runs_only_missing_cells(self, tmp_path):
        results = tmp_path / "results.jsonl"
        store = RunStore(tmp_path / "store")
        spec = _tiny_spec()
        cells = spec.cells()
        # A previous campaign stored two cells, then was killed mid-write
        # of a third line.
        store.put_summaries([json.dumps(run_cell(cell)) for cell in cells[:2]])
        with results.open("w", encoding="utf-8") as handle:
            handle.write('{"cell_id": "half-writ')  # no newline: killed here
        outcome = CampaignRunner(spec, results, max_workers=2,
                                 cache=store).run()
        assert outcome.cached == 2
        assert outcome.ran == 2
        # The cut line is gone: store hits first, then the simulated cells.
        emitted = [record["cell_id"] for record in load_records(results)]
        assert emitted[:2] == [cell.cell_id for cell in cells[:2]]
        assert sorted(emitted) == sorted(cell.cell_id for cell in cells)
        assert all(store.cached_record(cell.cell_id) for cell in cells)

    def test_incomplete_cells_are_final_on_resume(self, tmp_path):
        # A deterministic simulation that hit its deadline reproduces the
        # same outcome every time; resume must not re-run it forever.
        store = RunStore(tmp_path / "store")
        spec = _tiny_spec()
        cell = spec.cells()[0]
        store.put_summaries([json.dumps({
            "cell_id": cell.cell_id,
            "config": cell.config(),
            "status": "incomplete",
            "digest": "0" * 16,
        })])
        outcome = CampaignRunner(spec, tmp_path / "results.jsonl",
                                 max_workers=2, cache=store).run()
        assert (outcome.cached, outcome.ran) == (1, 3)
        assert outcome.records[0]["status"] == "incomplete"

    def test_error_cells_are_retried_on_resume(self, tmp_path):
        store = RunStore(tmp_path / "store")
        spec = _tiny_spec()
        cell = spec.cells()[0]
        stats = store.put_summaries([json.dumps({
            "cell_id": cell.cell_id,
            "config": cell.config(),
            "status": "error",
            "error": "Boom",
        })])
        assert (stats.summaries, stats.skipped) == (0, 1)
        outcome = CampaignRunner(spec, tmp_path / "results.jsonl",
                                 max_workers=2, cache=store).run()
        assert (outcome.cached, outcome.ran) == (0, 4)

    def test_a_retried_error_leaves_one_line_per_cell(self, tmp_path):
        # A directory where the general cell's shard goes fails that cell's
        # write in whichever worker runs it, under every start method.
        results = tmp_path / "results.jsonl"
        store = RunStore(tmp_path / "store")
        spec = _tiny_spec(seeds=[1], trace=True)
        (general,) = [cell for cell in spec.cells() if cell.technique == "general"]
        blocker = tmp_path / "traces" / f"{general.cell_id}.trace.json"
        blocker.mkdir(parents=True)
        first = CampaignRunner(spec, results, max_workers=1,
                               cache=store).run()
        assert (first.ran, first.failed) == (2, 1)
        (failed,) = [record for record in first.records
                     if record["status"] == "error"]
        assert failed["error"].startswith("IsADirectoryError")
        blocker.rmdir()
        again = CampaignRunner(spec, results, max_workers=1,
                               cache=store).run()
        text = render_report(results)
        assert text.splitlines()[0].endswith("(2 records)")
        assert "Non-ok" not in text
        assert len(results.read_text().splitlines()) == 2
        assert (again.ran, again.cached, again.failed) == (1, 1, 0)

    def test_unserializable_record_downgraded_to_error(self):
        from repro.campaign.runner import encode_record

        cell = CampaignCell(scenario="path-migration", technique="general")
        bad = {"cell_id": cell.cell_id, "status": "ok",
               "metrics": {("a", "b"): 1}}
        line, record = encode_record(bad, cell)
        assert record["status"] == "error"
        assert "unserializable" in record["error"]
        assert json.loads(line)["cell_id"] == cell.cell_id
        # A normal record round-trips unchanged.
        good = {"cell_id": cell.cell_id, "status": "ok", "metrics": {}}
        line, record = encode_record(good, cell)
        assert record is good and json.loads(line) == good

    def test_load_records_skips_a_cut_last_line(self, tmp_path):
        # A killed invocation can leave half a line behind.
        path = tmp_path / "r.jsonl"
        path.write_text('{"cell_id": "x", "status": "ok"}\n{"broken')
        assert [r["cell_id"] for r in load_records(path)] == ["x"]


class TestReport:
    def test_aggregate_groups_by_scenario_and_technique(self):
        records = [
            {"status": "ok", "scenario": "s", "technique": "barrier",
             "update_duration": 0.1, "mean_update_time": 0.05,
             "dropped_packets": 3, "metrics": {"http_bypassing_firewall": 2}},
            {"status": "ok", "scenario": "s", "technique": "barrier",
             "update_duration": 0.3, "mean_update_time": 0.15,
             "dropped_packets": 1, "metrics": {}},
            {"status": "error", "scenario": "s", "technique": "general"},
        ]
        rows = aggregate(records)
        assert len(rows) == 1
        (scenario, technique, fault, cells, duration, _mut, dropped,
         violations, digests) = rows[0]
        assert (scenario, technique, fault, cells) == ("s", "barrier", "none", 2)
        assert duration == pytest.approx(0.2)
        assert dropped == 4
        assert violations == 2
        assert digests == 0  # hand-written records carry no digest

    def test_the_mean_gap_weighs_every_activated_rule(self):
        from repro.campaign.report import activation_gaps

        def stats(rules, gap, never=0):
            return {"rules": rules, "early": 0, "never": never,
                    "min": gap, "mean": gap, "max": gap}

        # S1 activates 1 rule 10 ms before its ack, S2 99 rules at 0 ms, and
        # S3's only rule never activates: 10 ms over 100 activated rules.
        record = {"status": "ok", "scenario": "s", "technique": "t",
                  "activation_gaps": {"S1": stats(1, 0.010),
                                      "S2": stats(99, 0.0),
                                      "S3": {"rules": 1, "early": 0,
                                             "never": 1}}}
        assert activation_gaps([record]) == [
            ["t", "none", 101, 0, 1, "+0.10", "+0.00"]]
        # Split over two cells, the same rules give the same row.
        first = dict(record, activation_gaps={"S1": stats(1, 0.010)})
        second = dict(record, activation_gaps={"S2": stats(99, 0.0),
                                               "S3": {"rules": 1, "early": 0,
                                                      "never": 1}})
        assert activation_gaps([first, second]) == activation_gaps([record])

    def test_render_report_empty_file(self, tmp_path):
        assert "no campaign records" in render_report(tmp_path / "none.jsonl")

    def test_render_report_end_to_end(self, tmp_path):
        results = tmp_path / "results.jsonl"
        spec = CampaignSpec.quick()
        CampaignRunner(spec, results, max_workers=1).run()
        text = render_report(results)
        assert "path-migration" in text
        assert "general" in text


class TestTraceIntegration:
    def test_traced_cell_records_gaps_and_valid_shard(self, tmp_path):
        from pathlib import Path

        from repro.obs.export import validate_chrome_trace

        cell = CampaignCell(scenario="path-migration", technique="general",
                            flow_count=2, max_update_duration=5.0, trace=True)
        record = run_cell(cell, trace_dir=tmp_path)
        assert record["status"] == "ok"
        assert record["activation_gaps"]
        shard = Path(record["trace_path"])
        assert shard.parent == tmp_path
        payload = json.loads(shard.read_text(encoding="utf-8"))
        assert validate_chrome_trace(payload) is None
        json.dumps(record)  # the record itself stays one JSON line

    def test_a_shard_does_not_depend_on_its_place_in_a_chunk(self, tmp_path):
        # A worker runs its chunk in sequence; a cell's shard is the same
        # bytes whether it runs first or after another cell.
        x = CampaignCell(scenario="path-migration", technique="general",
                         flow_count=4, max_update_duration=5.0, trace=True)
        y = CampaignCell(scenario="fault-sweep", technique="barrier",
                         flow_count=2, max_update_duration=5.0, trace=True)
        shards = []
        for order, chunk in enumerate(([x, y], [y, x])):
            trace_dir = tmp_path / str(order)
            records = run_cells_chunk(chunk, trace_dir=trace_dir)
            assert [record["status"] for record in records] == ["ok", "ok"]
            shards.append((trace_dir / f"{x.cell_id}.trace.json").read_bytes())
        assert shards[0] == shards[1]

    def test_tracing_does_not_change_the_outcome(self):
        base = CampaignCell(scenario="path-migration", technique="general",
                            flow_count=2, max_update_duration=5.0)
        traced = CampaignCell(scenario="path-migration", technique="general",
                              flow_count=2, max_update_duration=5.0,
                              trace=True)
        assert base.cell_id != traced.cell_id  # different record payloads
        assert "trace" not in base.config()
        base_record, traced_record = run_cell(base), run_cell(traced)
        assert base_record["digest"] == traced_record["digest"]
        assert base_record["activation_gaps"] == traced_record["activation_gaps"]

    def test_report_gains_activation_gap_section(self, tmp_path):
        results = tmp_path / "results.jsonl"
        spec = _tiny_spec(techniques=["general"], seeds=[1], trace=True)
        runner = CampaignRunner(spec, results, max_workers=1)
        assert runner.trace_dir == tmp_path / "traces"
        outcome = runner.run()
        assert outcome.failed == 0
        assert list(runner.trace_dir.glob("*.trace.json"))
        text = render_report(results)
        assert "Activation gaps — ack vs hardware activation" in text

    def test_untraced_report_has_the_gap_section(self, tmp_path):
        # The gaps come from every run's activation ledger, not the trace.
        results = tmp_path / "results.jsonl"
        CampaignRunner(_tiny_spec(techniques=["general"], seeds=[1]),
                       results, max_workers=1).run()
        assert all(record["activation_gaps"]
                   for record in load_records(results))
        assert "Activation gaps — ack vs hardware activation" in \
            render_report(results)


class TestTelemetry:
    def test_records_carry_wall_and_rss_and_stay_jsonable(self):
        cell = CampaignCell(scenario="path-migration", technique="general",
                            flow_count=2, max_update_duration=5.0)
        record = run_cell(cell)
        assert record["wall_s"] >= 0.0
        assert record["peak_rss_kb"] > 0
        json.dumps(record)

    def test_error_records_carry_telemetry_too(self):
        cell = CampaignCell(scenario="ecmp-rebalance", technique="general",
                            topology="triangle")
        record = run_cell(cell)
        assert record["status"] == "error"
        assert "wall_s" in record and "peak_rss_kb" in record

    def test_run_writes_heartbeat_shards_and_manifest(self, tmp_path):
        from repro.campaign.heartbeat import load_manifest, load_shards

        results = tmp_path / "results.jsonl"
        runner = CampaignRunner(_tiny_spec(), results, max_workers=2)
        assert runner.heartbeat_dir == tmp_path / "heartbeats"
        outcome = runner.run()
        assert outcome.failed == 0

        manifest = load_manifest(runner.heartbeat_dir)
        assert manifest["total_cells"] == 4
        assert manifest["pending"] == 4
        assert manifest["results"] == str(results)

        shards = load_shards(runner.heartbeat_dir)
        assert shards, "no heartbeat shards written"
        events = [line for lines in shards.values() for line in lines]
        starts = [e for e in events if e["event"] == "cell-start"]
        assert len(starts) == 4
        # A cell-start beat carries what ``--status`` reads, and no more.
        assert all(set(e) == {"event", "cell_id", "ts", "pid"} for e in starts)
        done = [e for e in events if e["event"] == "cell-done"]
        assert sum(1 for _ in done) == 4
        assert all(e["status"] == "ok" for e in done)
        assert all(e["peak_rss_kb"] > 0 for e in done)
        # Each worker's cumulative counter ends at its own shard length.
        for lines in shards.values():
            finished = [e for e in lines if e["event"] == "cell-done"]
            if finished:
                assert finished[-1]["cells_done"] == len(finished)

    def test_progress_lines_carry_elapsed_and_eta(self, tmp_path):
        messages = []
        CampaignRunner(_tiny_spec(techniques=["general"], seeds=[1]),
                       tmp_path / "results.jsonl",
                       max_workers=1).run(progress=messages.append)
        cell_lines = [m for m in messages if m.startswith("[")]
        assert cell_lines
        assert all("elapsed" in line and "eta" in line for line in cell_lines)

    def test_report_gains_run_health_section(self, tmp_path):
        results = tmp_path / "results.jsonl"
        CampaignRunner(_tiny_spec(techniques=["general"], seeds=[1]),
                       results, max_workers=1).run()
        text = render_report(results)
        assert "Run health — per-worker runtime" in text
        assert "Slowest cells" in text

    def test_old_results_without_telemetry_skip_the_section(self, tmp_path):
        results = tmp_path / "results.jsonl"
        results.write_text(json.dumps({
            "status": "ok", "scenario": "s", "technique": "general",
            "cell_id": "x", "metrics": {},
        }) + "\n")
        assert "Run health" not in render_report(results)


class TestStatus:
    @staticmethod
    def _write_shard(directory, pid, lines):
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"worker-{pid}.heartbeat.jsonl"
        path.write_text("".join(
            json.dumps(dict(line, pid=pid)) + "\n" for line in lines))
        return path

    def test_status_after_a_real_run(self, tmp_path):
        from repro.campaign.report import render_status

        results = tmp_path / "results.jsonl"
        CampaignRunner(_tiny_spec(), results, max_workers=2).run()
        text = render_status(results)
        assert "Campaign status — 4 cells done" in text
        assert "Workers" in text
        # Directory forms resolve to the same heartbeat data.
        assert "4 cells done" in render_status(tmp_path)
        assert "4 cells done" in render_status(tmp_path / "heartbeats")

    def test_a_resume_counts_only_the_beats_of_its_own_invocation(self, tmp_path):
        from repro.campaign.heartbeat import write_manifest
        from repro.campaign.report import render_status

        results = tmp_path / "results.jsonl"
        store = RunStore(tmp_path / "store")
        CampaignRunner(_tiny_spec(seeds=[1]), results, max_workers=2,
                       cache=store).run()
        # A 4-cell resume has written its manifest and none of its workers
        # has beaten yet; the first run's shards stay on disk.
        write_manifest(tmp_path / "heartbeats", total_cells=4, pending=2,
                       workers=2, results=str(results))
        assert render_status(results).splitlines()[0] == (
            "Campaign status — 0 cells done, 2 of 2 pending remain (4 total in grid)")
        CampaignRunner(_tiny_spec(), results, max_workers=2,
                       cache=store).run()
        assert render_status(results).startswith(
            "Campaign status — 2 cells done, 0 of 2 pending remain (4 total in grid)")

    def test_running_straggler_and_dead_detection(self, tmp_path):
        from repro.campaign.heartbeat import load_shards, worker_statuses
        from repro.campaign.report import render_status

        now = 1000.0
        done = {"event": "cell-done", "cell_id": "a", "status": "ok",
                "wall_s": 2.0, "cells_done": 1, "cells_per_s": 0.5,
                "outcomes": {"ok": 1}, "peak_rss_kb": 1024}
        # Worker 1: started a cell 3s ago with a 2s median — running.
        self._write_shard(tmp_path, 1, [
            {"event": "worker-start", "ts": now - 60},
            dict(done, ts=now - 50),
            {"event": "cell-start", "cell_id": "b", "ts": now - 3},
        ])
        # Worker 2: cell open for 30s (> 4x median of 2s) — straggler.
        self._write_shard(tmp_path, 2, [
            {"event": "worker-start", "ts": now - 60},
            dict(done, cell_id="c", ts=now - 40),
            {"event": "cell-start", "cell_id": "d", "ts": now - 30},
        ])
        # Worker 3: mid-cell and silent past the stale window — dead?.
        self._write_shard(tmp_path, 3, [
            {"event": "worker-start", "ts": now - 500},
            {"event": "cell-start", "cell_id": "e", "ts": now - 400},
        ])
        statuses = worker_statuses(load_shards(tmp_path), now=now)
        states = {status.pid: status.state for status in statuses}
        assert states == {1: "running", 2: "straggler", 3: "dead?"}

        text = render_status(tmp_path, now=now)
        assert "straggler" in text and "dead?" in text
        assert "warning: worker 2 is straggler" in text
        assert "warning: worker 3 is dead?" in text

    def test_exited_vs_idle_without_open_cells(self, tmp_path):
        from repro.campaign.heartbeat import load_shards, worker_statuses

        now = 1000.0
        self._write_shard(tmp_path, 1, [
            {"event": "worker-start", "ts": now - 500}])
        self._write_shard(tmp_path, 2, [
            {"event": "worker-start", "ts": now - 5}])
        states = {s.pid: s.state
                  for s in worker_statuses(load_shards(tmp_path), now=now)}
        assert states == {1: "exited", 2: "idle"}

    def test_status_of_an_empty_directory(self, tmp_path):
        from repro.campaign.report import render_status

        assert "no heartbeat shards" in render_status(tmp_path / "nothing")

    def test_cli_status_smoke(self, tmp_path, capsys):
        from repro.campaign.__main__ import main

        results = tmp_path / "results.jsonl"
        CampaignRunner(_tiny_spec(techniques=["general"], seeds=[1]),
                       results, max_workers=1).run()
        assert main(["--status", str(results)]) == 0
        out = capsys.readouterr().out
        assert "Campaign status" in out

    def test_cli_requires_a_command_or_status(self, capsys):
        from repro.campaign.__main__ import main

        with pytest.raises(SystemExit):
            main([])
        capsys.readouterr()


class TestStatusThresholds:
    """The dead and straggler thresholds, crossed by moving ``now``."""

    @staticmethod
    def _write_shard(directory, pid, lines):
        TestStatus._write_shard(directory, pid, lines)

    def _midcell_fleet(self, tmp_path, now):
        done = {"event": "cell-done", "cell_id": "a", "status": "ok",
                "wall_s": 2.0, "cells_done": 1, "cells_per_s": 0.5,
                "outcomes": {"ok": 1}, "peak_rss_kb": 1024}
        # One worker, mid-cell for 30s, last beat 30s ago, 2s median wall.
        self._write_shard(tmp_path, 1, [
            {"event": "worker-start", "ts": now - 60},
            dict(done, ts=now - 50),
            {"event": "cell-start", "cell_id": "b", "ts": now - 30},
        ])

    def test_stale_after_promotes_running_to_dead(self, tmp_path):
        from repro.campaign.heartbeat import (
            DEFAULT_STALE_AFTER,
            load_shards,
            worker_statuses,
        )

        now = 1000.0
        self._midcell_fleet(tmp_path, now)
        shards = load_shards(tmp_path)
        # 30s of silence is fine; the long cell is already past the
        # straggler window, so the worker is a straggler ...
        assert worker_statuses(shards, now=now)[0].state == "straggler"
        # ... until its last beat is older than the stale window.
        last_beat = now - 30
        assert worker_statuses(
            shards, now=last_beat + DEFAULT_STALE_AFTER)[0].state == "straggler"
        assert worker_statuses(
            shards, now=last_beat + DEFAULT_STALE_AFTER + 1)[0].state == "dead?"

    def test_straggler_factor_widens_the_window(self, tmp_path):
        from repro.campaign.heartbeat import (
            DEFAULT_STRAGGLER_FACTOR,
            load_shards,
            worker_statuses,
        )

        now = 1000.0
        self._midcell_fleet(tmp_path, now)
        shards = load_shards(tmp_path)
        # The cell opened 30s ago; the fleet's median wall is 2s.  The factor
        # widens the window from one median wall to that many.
        opened, median = now - 30, 2.0
        window = DEFAULT_STRAGGLER_FACTOR * median
        assert window > median
        assert worker_statuses(shards, now=opened + median + 1)[0].state == "running"
        assert worker_statuses(shards, now=opened + window)[0].state == "running"
        assert worker_statuses(shards, now=opened + window + 1)[0].state == "straggler"


class TestCampaignCache:
    def _spec(self):
        return _tiny_spec(techniques=["timeout", "general"], seeds=[1, 2])

    def _populated_store(self, tmp_path):
        results = tmp_path / "first.jsonl"
        CampaignRunner(self._spec(), results, max_workers=2).run()
        store = RunStore(tmp_path / "store")
        store.ingest(results)
        return results, store

    def test_cached_rerun_simulates_nothing(self, tmp_path):
        results, store = self._populated_store(tmp_path)
        rerun = tmp_path / "second.jsonl"
        outcome = CampaignRunner(self._spec(), rerun, max_workers=2,
                                 cache=store).run()
        assert outcome.ran == 0
        assert outcome.cached == 4
        assert outcome.failed == 0

    def test_cached_results_are_byte_identical_lines(self, tmp_path):
        results, store = self._populated_store(tmp_path)
        rerun = tmp_path / "second.jsonl"
        CampaignRunner(self._spec(), rerun, max_workers=2,
                       cache=store).run()
        # Line-set equality: the cache emits the original records verbatim
        # (order may differ from the pool's completion order).
        original = set(results.read_text().splitlines())
        cached = set(rerun.read_text().splitlines())
        assert cached == original

    def test_cached_report_is_byte_identical(self, tmp_path):
        results, store = self._populated_store(tmp_path)
        # Re-run into a file of the same *name* in another directory so the
        # report titles (which embed the path) match byte for byte after
        # normalizing the directory part.
        other = tmp_path / "rerun"
        other.mkdir()
        rerun = other / "first.jsonl"
        CampaignRunner(self._spec(), rerun, max_workers=2,
                       cache=store).run()
        left = render_report(results).replace(str(results), "RESULTS")
        right = render_report(rerun).replace(str(rerun), "RESULTS")
        assert left == right

    def test_cache_accepts_a_path(self, tmp_path, caplog):
        # The runner takes a RunStore; ``--cache PATH`` makes one of a path.
        from repro.campaign.__main__ import main

        spec = CampaignSpec(scenarios=["path-migration"],
                            techniques=["timeout", "general"], scales=[1],
                            seeds=[1, 2], flow_count=2)
        store = RunStore(tmp_path / "store")
        CampaignRunner(spec, tmp_path / "first.jsonl", max_workers=2,
                       cache=store).run()
        with caplog.at_level(logging.INFO, logger="repro"):
            assert main(["run", "--scenarios", "path-migration",
                         "--techniques", "timeout,general", "--scales", "1",
                         "--seeds", "1,2", "--flows", "2", "--workers", "2",
                         "--no-report", "--cache", str(store.root),
                         "--out", str(tmp_path / "second.jsonl")]) == 0
        assert "ran 0, cached 4" in caplog.text

    def test_partial_hits_simulate_the_rest(self, tmp_path):
        results, store = self._populated_store(tmp_path)
        spec = _tiny_spec(techniques=["timeout", "general", "barrier"],
                          seeds=[1, 2])
        rerun = tmp_path / "second.jsonl"
        outcome = CampaignRunner(spec, rerun, max_workers=2,
                                 cache=store).run()
        assert outcome.cached == 4
        assert outcome.ran == 2  # the barrier cells were never stored
        assert len(rerun.read_text().splitlines()) == 6

    def test_manifest_and_status_count_cached_cells(self, tmp_path):
        from repro.campaign.heartbeat import load_manifest
        from repro.campaign.report import render_status

        results, store = self._populated_store(tmp_path)
        other = tmp_path / "rerun"
        other.mkdir()
        rerun = other / "results.jsonl"
        spec = _tiny_spec(techniques=["timeout", "general", "barrier"],
                          seeds=[1, 2])
        CampaignRunner(spec, rerun, max_workers=2, cache=store).run()
        manifest = load_manifest(other / "heartbeats")
        assert manifest["cached"] == 4
        assert manifest["pending"] == 2  # only the simulated cells
        assert "4 from cache" in render_status(rerun)

    def test_run_health_section_names_the_cache(self, tmp_path):
        results, store = self._populated_store(tmp_path)
        rerun = tmp_path / "second.jsonl"
        CampaignRunner(self._spec(), rerun, max_workers=2,
                       cache=store).run()
        assert "emitted from the store cache" in render_report(rerun,
                                                               cached=4)
        assert "store cache" not in render_report(rerun)

    def test_cache_skips_corrupted_records(self, tmp_path):
        import json as json_mod

        results, store = self._populated_store(tmp_path)
        # Corrupt every stored line: all four cells must re-simulate.
        for record in load_records(results):
            obj = store.load(record["digest"])
            line = obj["summaries"][record["cell_id"]]
            assert '"status": "ok"' in line
            obj["summaries"][record["cell_id"]] = line.replace(
                '"status": "ok"', '"status": "tampered"')
            store.object_path(record["digest"]).write_text(
                json_mod.dumps(obj), encoding="utf-8")
        rerun = tmp_path / "second.jsonl"
        outcome = CampaignRunner(self._spec(), rerun, max_workers=2,
                                 cache=store).run()
        assert outcome.cached == 0
        assert outcome.ran == 4


class TestDifferentialReport:
    def _results(self, tmp_path, name="results.jsonl", **overrides):
        results = tmp_path / name
        CampaignRunner(_tiny_spec(**overrides), results, max_workers=2).run()
        return results

    @staticmethod
    def _baseline(ref):
        """What a results file or store directory resolves to (such a REF
        never reads the store it is resolved against)."""
        return RunStore("runstore").read(str(ref))

    @classmethod
    def _cells(cls, ref):
        """``cell_id -> line`` of a results file or store directory."""
        return cls._baseline(ref).cells

    def test_identical_results_have_no_rows(self, tmp_path):
        left = self._results(tmp_path, "left.jsonl")
        right = self._results(tmp_path, "right.jsonl")
        text = render_report(left, self._baseline(right))
        assert "4 unchanged, 0 changed, 0 new, 0 only in baseline" in text
        assert "identical outcome" in text  # the no-rows epilogue

    def test_store_baseline_matches_results_baseline(self, tmp_path):
        results = self._results(tmp_path)
        store = RunStore(tmp_path / "store")
        store.ingest(results)
        assert self._cells(store.root) == self._cells(results)

    def test_changed_cell_names_what_moved(self, tmp_path):
        from repro.campaign.report import differential

        results = self._results(tmp_path)
        baseline = self._cells(results)
        records = load_records(results)
        drifted = dict(records[0])
        drifted["digest"] = "0" * 16
        drifted["dropped_packets"] = 99
        records[0] = drifted
        rows, counts = differential(records, baseline)
        assert counts["changed"] == 1
        assert counts["unchanged"] == len(records) - 1
        row = rows[0]
        assert "->" in row[5]  # digest column shows the move
        assert "dropped_packets: " in row[6]

    def test_a_crashed_cell_is_a_changed_row_both_ways(self, tmp_path):
        from repro.campaign.report import differential

        results = self._results(tmp_path)
        lines = load_records(results)
        ok = lines[0]
        crashed = {"cell_id": ok["cell_id"], "config": ok["config"],
                   "status": "error", "error": "RuntimeError: agent lost"}
        prefix = [ok["scenario"], ok["technique"], "none", ok["seed"]]

        rows, counts = differential([crashed] + lines[1:], self._cells(results))
        assert counts == {"unchanged": len(lines) - 1, "changed": 1,
                          "new": 0, "missing": 0}
        assert rows == [prefix + ["ok -> error", f"{ok['digest']} -> -",
                                  "RuntimeError: agent lost"]]

        # A results baseline keeps its error lines: the cell recovered.
        crashed_run = tmp_path / "crashed.jsonl"
        crashed_run.write_text("".join(
            json.dumps(line) + "\n" for line in [crashed] + lines[1:]))
        rows, counts = differential(lines, self._cells(crashed_run))
        assert counts == {"unchanged": len(lines) - 1, "changed": 1,
                          "new": 0, "missing": 0}
        assert rows == [prefix + ["error -> ok", f"- -> {ok['digest']}",
                                  "RuntimeError: agent lost"]]

        # A store keeps no error line: against it the cell that errored in
        # both runs is new, and its row still says why it failed.
        store = RunStore(tmp_path / "store")
        store.ingest(crashed_run)
        rows, counts = differential([crashed] + lines[1:],
                                    self._cells(store.root))
        assert counts == {"unchanged": len(lines) - 1, "changed": 0,
                          "new": 1, "missing": 0}
        assert rows == [prefix + ["error", "-", "new cell (not in baseline): "
                                                "RuntimeError: agent lost"]]

    def test_rows_sort_seeds_as_numbers(self):
        from repro.campaign.report import differential

        records = [{"cell_id": f"cell-{seed}", "scenario": "s",
                    "technique": "t", "seed": seed, "status": "ok",
                    "digest": f"d{seed}"} for seed in (10, 2, 1)]
        rows, counts = differential(records, {})
        assert counts["new"] == 3
        assert [row[3] for row in rows] == [1, 2, 10]

    def test_new_and_missing_cells_are_counted(self, tmp_path):
        from repro.campaign.report import differential

        results = self._results(tmp_path)
        baseline = self._cells(results)
        records = load_records(results)
        extra = dict(records[0])
        extra["cell_id"] = "feedfacefeedface"
        records.append(extra)
        removed = records.pop(0)
        rows, counts = differential(records, baseline)
        assert counts["new"] == 1
        assert counts["missing"] == 1
        assert any("new cell" in str(row[6]) for row in rows)
        del removed

    def test_cli_show_against_a_store_baseline(self, tmp_path, capsys):
        from repro.store.__main__ import main

        results = self._results(tmp_path)
        store_dir = tmp_path / "store"
        RunStore(store_dir).ingest(results)
        assert main(["show", str(results), str(store_dir)]) == 0
        out = capsys.readouterr().out
        assert "Differential resilience" in out
