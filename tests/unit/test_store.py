"""Tests for the content-addressed run store (``repro.store``).

Covers the object layout (digest-keyed, content-pinned parts), ingest of
campaign results files and standalone record payloads, the spec-encoding
index behind ``run``'s store, ``verify``'s corruption detection, ``gc``,
prefix resolution, and the store subcommands of ``python -m repro``.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.campaign import CampaignRunner, CampaignSpec, load_records
from repro.scenarios import ScenarioParams, run_scenario
from repro.store import RunStore, StoreError, content_sha1, spec_key
from repro.__main__ import main as store_main


def _spec(**overrides):
    """A tiny campaign grid."""
    defaults = dict(
        scenarios=["path-migration"],
        techniques=["timeout", "general"],
        scales=[1],
        seeds=[1],
        flow_count=2,
        max_update_duration=5.0,
    )
    defaults.update(overrides)
    return CampaignSpec(**defaults)


def _campaign(tmp_path, **overrides):
    """Run a tiny campaign; returns its results path."""
    results = tmp_path / "results.jsonl"
    CampaignRunner(_spec(**overrides), results, max_workers=2).run()
    return results


def _lines(results):
    """``cell_id -> (line, record)`` of a results file, lines as written."""
    return {json.loads(line)["cell_id"]: (line, json.loads(line))
            for line in results.read_text(encoding="utf-8").splitlines()}


def _pin(line):
    """The byte pin a stored line carries: SHA-1 of its UTF-8, 16 hex."""
    return hashlib.sha1(line.encode("utf-8")).hexdigest()[:16]


def _rot(line):
    """``line`` with one byte of bit rot: its last digit (a results line
    ends with ``"peak_rss_kb": <int>}``), so it stays JSON and keeps its
    digest."""
    return line[:-2] + str((int(line[-2]) + 1) % 10) + line[-1]


def _rewrite(store, digest, edit):
    """Apply ``edit`` to a stored object in place, bypassing the store."""
    obj = store.load(digest)
    edit(obj)
    store.object_path(digest).write_text(json.dumps(obj), encoding="utf-8")


def _record_payload(technique="general", seed=7, trace=True):
    """A full traced RunRecord payload from a real scenario run."""
    params = ScenarioParams(seed=seed, flow_count=2, trace=trace)
    return run_scenario("path-migration", technique, params).as_dict()


class TestIngestAndQuery:
    def test_results_file_becomes_summary_objects(self, tmp_path):
        results = _campaign(tmp_path)
        store = RunStore(tmp_path / "store")
        stats = store.ingest(results)
        assert stats.summaries == 2
        assert stats.records == 0
        assert len(store.digests()) == 2
        # Both the config and the session encodings are indexed.
        assert stats.indexed == 4

    def test_summaries_are_stored_verbatim(self, tmp_path):
        # A stored cell is the line the runner wrote, pinned by its bytes.
        results = _campaign(tmp_path)
        store = RunStore(tmp_path / "store")
        store.ingest(results)
        for cell_id, (line, record) in _lines(results).items():
            obj = store.load(record["digest"])
            assert obj["summaries"][cell_id] == line
            assert obj["sha1"]["summaries"][cell_id] == _pin(line)

    def test_full_record_payload_roundtrip(self, tmp_path):
        from repro.session.record import outcome_digest

        payload = _record_payload()
        store = RunStore(tmp_path / "store")
        digest = store.put_record(payload)
        assert digest == outcome_digest(payload)
        obj = store.load(digest)
        assert obj["record"] == payload
        assert store.lookup_key(spec_key(payload["spec"])) == digest

    def test_ingest_directory_skips_heartbeats_and_traces(self, tmp_path):
        results = _campaign(tmp_path)
        (tmp_path / "heartbeats").mkdir(exist_ok=True)
        (tmp_path / "heartbeats" / "worker-1.heartbeat.jsonl").write_text(
            '{"event": "worker-start"}\n')
        (tmp_path / "heartbeats" / "campaign.json").write_text("{}")
        (tmp_path / "shard.json").write_text(
            json.dumps({"traceEvents": [], "otherData": {}}))
        store = RunStore(tmp_path / "store")
        stats = store.ingest(tmp_path)
        assert stats.summaries == 2
        # The chrome shard and the not-a-record json were skipped.
        assert stats.skipped >= 1
        assert store.verify() == []
        del results

    def test_query_filters(self, tmp_path):
        results = _campaign(tmp_path)
        store = RunStore(tmp_path / "store")
        store.ingest(results)
        assert len(store.query()) == 2
        timeout_rows = store.query(technique="timeout")
        assert [row["technique"] for row in timeout_rows] == ["timeout"]
        assert store.query(scenario="nope") == []
        assert len(store.query(outcome="ok")) == 2

    def test_full_record_is_queryable_by_its_fault_string(self, tmp_path):
        # A full record's labels are the plan's and the policy's strings,
        # as its session encoding carries them: the same strings a campaign
        # axis and ``store query --fault`` use.
        params = ScenarioParams(seed=7, flow_count=2,
                                faults="ack-loss(probability=0.3)",
                                recovery="on(max_attempts=6)")
        payload = run_scenario("fault-sweep", "barrier", params).as_dict()
        store = RunStore(tmp_path / "store")
        digest = store.put_record(payload)
        rows = store.query(fault="ack-loss(probability=0.3)")
        assert [row["digest"] for row in rows] == [digest]
        assert rows[0]["recovery"] == "on(max_attempts=6)"
        assert store.query(fault="none") == []

    def test_resolve_prefix(self, tmp_path):
        store = RunStore(tmp_path / "store")
        digest = store.put_record(_record_payload(technique="timeout"))
        other = store.put_record(_record_payload(technique="general"))
        assert digest != other
        assert store.resolve(digest[:6]) == digest
        with pytest.raises(StoreError, match="no stored run"):
            store.resolve("ffff")
        with pytest.raises(StoreError, match="ambiguous"):
            store.resolve("")

    @pytest.mark.parametrize("lines", [250, 1000])
    def test_an_ingest_writes_the_index_once(self, tmp_path, monkeypatch,
                                             lines):
        # Counted, not timed: writing the whole index per line made an
        # N-line ingest quadratic.
        replace = Path.replace
        index_writes = []

        def counting(path, target):
            if Path(target).name == "specs.json":
                index_writes.append(target)
            return replace(path, target)

        results = tmp_path / "synthetic.jsonl"
        with results.open("w", encoding="utf-8") as handle:
            for index in range(lines):
                config = {"scenario": "synthetic", "seed": index}
                handle.write(json.dumps({
                    "cell_id": spec_key(config), "config": config,
                    "session": {"kind": "synthetic", "seed": index},
                    "status": "ok", "digest": f"{index:016x}"}) + "\n")
        monkeypatch.setattr(Path, "replace", counting)
        stats = RunStore(tmp_path / "store").ingest(results)
        assert (stats.summaries, stats.indexed) == (lines, 2 * lines)
        assert len(index_writes) == 1


class TestCachedRecord:
    def test_hit_is_the_verbatim_summary(self, tmp_path):
        results = _campaign(tmp_path)
        store = RunStore(tmp_path / "store")
        store.ingest(results)
        for cell_id, (line, record) in _lines(results).items():
            assert store.cached_record(cell_id) == (line, record)

    def test_unknown_cell_misses(self, tmp_path):
        store = RunStore(tmp_path / "store")
        assert store.cached_record("deadbeefdeadbeef") is None

    def test_corrupted_summary_refuses_to_hit(self, tmp_path):
        # One byte of bit rot in a stored line is a miss.
        results = _campaign(tmp_path)
        store = RunStore(tmp_path / "store")
        store.ingest(results)
        cell_id, (line, record) = next(iter(_lines(results).items()))

        def rot(obj):
            obj["summaries"][cell_id] = _rot(line)

        _rewrite(store, record["digest"], rot)
        assert store.cached_record(cell_id) is None

    def test_digest_mismatch_refuses_to_hit(self, tmp_path):
        results = _campaign(tmp_path)
        store = RunStore(tmp_path / "store")
        store.ingest(results)
        cell_id, (line, record) = next(iter(_lines(results).items()))
        forged = line.replace(record["digest"], "0" * 16)
        assert forged != line

        def repin(obj):
            obj["summaries"][cell_id] = forged
            obj["sha1"]["summaries"][cell_id] = _pin(forged)  # re-pinned!

        _rewrite(store, record["digest"], repin)
        # The byte pin matches, but the line no longer claims the object's
        # digest: still a miss, and a verify problem.
        assert store.cached_record(cell_id) is None
        assert store.verify() == [
            f"{record['digest']}: summary of cell {cell_id} claims digest "
            f"{'0' * 16!r}"]

    def test_a_rotten_full_record_beside_the_line_refuses_to_hit(
            self, tmp_path):
        # The line is intact, but the full record stored in the same object
        # no longer recomputes to the object's digest: a miss.
        spec = _spec(techniques=["general"])
        results = tmp_path / "results.jsonl"
        CampaignRunner(spec, results, max_workers=1).run()
        ((cell_id, (line, record)),) = _lines(results).items()
        store = RunStore(tmp_path / "store")
        store.ingest(results)
        (cell,) = spec.cells()
        payload = run_scenario(cell.scenario, cell.technique,
                               cell.scenario_params()).as_dict()
        assert store.put_record(payload) == record["digest"]
        assert store.cached_record(cell_id) == (line, record)

        def rot(obj):
            obj["record"]["update_duration"] = 999.0

        _rewrite(store, record["digest"], rot)
        assert store.cached_record(cell_id) is None

    def test_cells_sharing_a_digest_each_hit_their_own_summary(self, tmp_path):
        # ``general`` never depends on an ack that ``ack-loss`` drops, so
        # its faulted and fault-free cells share one outcome digest — and
        # one store object, which keeps each cell's summary under its id.
        spec = CampaignSpec(
            scenarios=["path-migration"], techniques=["barrier", "general"],
            seeds=[1, 2], faults=["none", "ack-loss(probability=0.2)"])
        cold = tmp_path / "cold.jsonl"
        CampaignRunner(spec, cold, max_workers=2).run()
        originals = _lines(cold)
        assert len(originals) == 8
        assert len({record["digest"] for _, record in originals.values()}) < 8
        store = RunStore(tmp_path / "store")
        store.ingest(cold)
        warm = tmp_path / "warm.jsonl"
        outcome = CampaignRunner(spec, warm, max_workers=2, cache=store).run()
        assert (outcome.ran, outcome.cached) == (0, 8)
        for cell in spec.cells():
            assert store.cached_record(cell.cell_id) == originals[cell.cell_id]
        # Each cell's own line comes back, byte for byte.
        assert _lines(warm) == originals

    def test_storing_a_cell_again_never_blesses_a_rotten_sibling(
            self, tmp_path):
        # Cells A and B share one object.  B's summary rots; storing A
        # again must leave B a miss, out of the store's cells as a
        # baseline, and a verify problem.
        both = _campaign(tmp_path, techniques=["general"], seeds=[1, 2],
                         faults=["none", "ack-loss(probability=0.2)"])
        by_seed = {}
        for record in load_records(both):
            by_seed.setdefault(record["config"]["seed"], []).append(record)
        a, b = next(pair for pair in by_seed.values()
                    if pair[0]["digest"] == pair[1]["digest"])
        assert a["config"]["fault"] == "none"
        store = RunStore(tmp_path / "store")
        store.ingest(both)

        def rot(obj):
            obj["summaries"][b["cell_id"]] = _rot(obj["summaries"][b["cell_id"]])

        _rewrite(store, b["digest"], rot)
        only_a = tmp_path / "a"
        only_a.mkdir()
        store.ingest(_campaign(only_a, techniques=["general"],
                               seeds=[a["config"]["seed"]], faults=["none"]))
        assert store.cached_record(a["cell_id"]) is not None
        assert store.cached_record(b["cell_id"]) is None
        assert set(store.read(str(store.root)).cells) == {
            record["cell_id"] for record in load_records(both)} - {b["cell_id"]}
        (problem,) = store.verify()
        assert problem.startswith(
            f"{b['digest']}: summary of cell {b['cell_id']} content hash")

    def test_a_cut_trailing_line_stores_only_the_complete_lines(
            self, tmp_path):
        # A campaign killed mid-write leaves half a line behind.
        results = _campaign(tmp_path)
        (first, whole), (second, cut) = _lines(results).items()
        killed = tmp_path / "killed.jsonl"
        killed.write_text(whole[0] + "\n" + cut[0][:len(cut[0]) // 2],
                          encoding="utf-8")
        store = RunStore(tmp_path / "store")
        stats = store.ingest(killed)
        assert (stats.summaries, stats.skipped) == (1, 1)
        assert store.cached_record(first) == whole
        assert store.cached_record(second) is None
        assert store.digests() == [whole[1]["digest"]]
        assert store.verify() == []

    def test_a_hand_spaced_line_is_re_emitted_byte_for_byte(self, tmp_path):
        spec = _spec(techniques=["general"])
        results = tmp_path / "results.jsonl"
        CampaignRunner(spec, results, max_workers=1).run()
        ((line, record),) = _lines(results).values()
        spaced = json.dumps(record, separators=(" ,  ", " :\t"))
        hand = tmp_path / "hand.jsonl"
        hand.write_text(spaced + "\n", encoding="utf-8")
        store = RunStore(tmp_path / "store")
        store.ingest(hand)
        rerun = tmp_path / "rerun.jsonl"
        outcome = CampaignRunner(spec, rerun, max_workers=1, cache=store).run()
        assert (outcome.ran, outcome.cached) == (0, 1)
        assert outcome.records == [record]
        assert rerun.read_bytes() == hand.read_bytes() != results.read_bytes()

class TestVerifyAndGc:
    def test_clean_store_verifies(self, tmp_path):
        store = RunStore(tmp_path / "store")
        store.put_record(_record_payload())
        assert store.verify() == []

    def test_an_object_of_another_schema_is_a_miss_and_one_problem(
            self, tmp_path):
        # A schema-3 object kept each cell as a dict, pinned by the content
        # SHA-1 of its canonical JSON: well-formed, but not this layout.
        results = _campaign(tmp_path, techniques=["general"])
        store = RunStore(tmp_path / "store")
        store.ingest(results)
        ((cell_id, (line, record)),) = _lines(results).items()

        def schema_3(obj):
            obj["schema"] = 3
            obj["summaries"][cell_id] = record
            obj["sha1"]["summaries"][cell_id] = content_sha1(record)

        _rewrite(store, record["digest"], schema_3)
        assert store.cached_record(cell_id) is None
        assert store.verify() == [
            f"{record['digest']}: store schema 3 is not 4"]
        with pytest.raises(StoreError, match="store schema 3 is not 4"):
            store.read(cell_id)
        store.ingest(results)  # re-ingesting replaces the object
        assert store.cached_record(cell_id) == (line, record)
        assert store.verify() == []

    def test_verify_catches_tampered_record(self, tmp_path):
        store = RunStore(tmp_path / "store")
        digest = store.put_record(_record_payload())
        obj = store.load(digest)
        obj["record"]["update_duration"] = 999.0
        store.object_path(digest).write_text(json.dumps(obj),
                                             encoding="utf-8")
        problems = store.verify()
        assert any("content hash" in problem for problem in problems)

    def test_verify_catches_repinned_record(self, tmp_path):
        # An attacker (or a buggy migration) can re-pin tampered content;
        # the recomputed outcome digest still catches it.
        store = RunStore(tmp_path / "store")
        digest = store.put_record(_record_payload())
        obj = store.load(digest)
        obj["record"]["update_duration"] = 999.0
        obj["sha1"]["record"] = content_sha1(obj["record"])
        store.object_path(digest).write_text(json.dumps(obj),
                                             encoding="utf-8")
        problems = store.verify()
        assert any("recomputes to digest" in problem for problem in problems)

    def test_verify_catches_missing_artifact(self, tmp_path):
        results = _campaign(tmp_path, trace=True)
        store = RunStore(tmp_path / "store")
        store.ingest(results)
        record = next(record for record in load_records(results)
                      if record.get("trace_path"))
        obj = store.load(record["digest"])
        name = sorted(obj["artifacts"])[0]
        store.artifact_path(record["digest"], name).unlink()
        problems = store.verify()
        assert any("missing" in problem for problem in problems)

    def test_verify_and_gc_handle_dangling_index(self, tmp_path):
        store = RunStore(tmp_path / "store")
        digest = store.put_record(_record_payload())
        store.index_encoding({"ghost": True}, "f" * 16)
        assert any("points at no object" in p for p in store.verify())
        stats = store.gc()
        assert stats.dangling_index == 1
        assert store.verify() == []
        assert store.lookup_key(spec_key({"ghost": True})) is None
        assert digest in store.digests()  # live objects untouched

    def test_a_truncated_object_is_one_problem_not_a_failed_read(
            self, tmp_path):
        # Writes are atomic, but a disk can still cut an object.
        results = _campaign(tmp_path, techniques=["barrier", "general"])
        store = RunStore(tmp_path / "store")
        store.ingest(results)
        by_technique = {record["technique"]: record
                        for record in load_records(results)}
        cut, healthy = by_technique["barrier"], by_technique["general"]
        path = store.object_path(cut["digest"])
        path.write_bytes(path.read_bytes()[:40])

        assert store.verify() == [f"{cut['digest']}: object is not valid JSON"]
        assert [row["digest"] for row in store.query()] == [healthy["digest"]]
        assert store.cached_record(cut["cell_id"]) is None
        spec = CampaignSpec(scenarios=["path-migration"],
                            techniques=["barrier", "general"], seeds=[1],
                            flow_count=2, max_update_duration=5.0)
        outcome = CampaignRunner(spec, tmp_path / "rerun.jsonl", max_workers=1,
                                 cache=store).run()
        assert (outcome.ran, outcome.cached) == (1, 1)

        store.ingest(results)  # re-ingesting rewrites the object
        assert store.verify() == []

    def test_a_write_killed_halfway_leaves_no_object(self, tmp_path,
                                                     monkeypatch):
        store = RunStore(tmp_path / "store")
        payload = _record_payload()
        write_text = Path.write_text

        def killed_halfway(path, text, *args, **kwargs):
            write_text(path, text[:len(text) // 2], *args, **kwargs)
            raise KeyboardInterrupt

        with monkeypatch.context() as patch:
            patch.setattr(Path, "write_text", killed_halfway)
            with pytest.raises(KeyboardInterrupt):
                store.put_record(payload)
        assert store.verify() == []
        assert store.digests() == []
        digest = store.put_record(payload)  # the retry
        assert store.digests() == [digest]
        assert store.verify() == []


#: A traced ``RunRecord.as_dict()`` payload as builds that sampled gauges
#: wrote it: its ``trace`` carries a ``metrics`` key (a fault counter and six
#: gauge series).  Cut to three events and two samples per gauge; the outcome
#: keys are verbatim.
_PAYLOAD_WITH_TRACE_METRICS = json.loads("""
{"schema": 1, "kind": "scenario", "technique": "timeout", "spec": {"kind": "scenario",
 "technique": "timeout", "labels": {"scenario": "path-migration", "scale": 1, "params":
 {"topology": "triangle", "scale": 1, "flow_count": 1, "rate_pps": 10.0, "seed": 2,
 "hardware_fraction": 0.3333333333333333, "warmup": 0.05, "grace": 0.05,
 "max_update_duration": 1.0, "max_unconfirmed": null,
 "faults": "delay-spike(probability=1.0,spike=0.3)@S2", "recovery": null, "trace": true,
 "profile": false}}, "stack": {"rum_overrides": {}, "with_barrier_layer": false,
 "buffer_after_barrier": false}, "knobs": {"seed": 2, "warmup": 0.05, "grace": 0.05,
 "settle": 0.05, "poll_interval": 0.1, "max_update_duration": 1.0, "run_for": null,
 "max_unconfirmed": 16, "barrier_every": 10, "rate_pps": 10.0}, "faults": {"specs":
 [{"fault": "delay-spike", "params": {"probability": 1.0, "spike": 0.3}, "targets":
 ["S2"]}], "seed": null}, "trace": true}, "scenario": "path-migration",
 "topology": "triangle", "seed": 2, "scale": 1, "update_start": 0.05,
 "update_duration": 0.609066913036733, "completed": true, "flows_run": 1, "plan_size": 2,
 "acknowledged_rules": 2, "usable_rate": 3.2837114563131413, "dropped_packets": 1,
 "mean_update_time": 0.4277202331202538, "completion_time": 0.4277202331202538,
 "stats": [{"flow_id": "flow-0000", "last_old_path": 0.22759909712025383,
 "first_new_path": 0.4277202331202538, "broken_time": 0.10012113599999997,
 "packets_sent": 8, "packets_received": 7}], "activation": null, "metrics":
 {"old_path_hops": 2, "new_path_hops": 3, "path_stretch": 1},
 "rum_description": "RUM[static timeout (300 ms after barrier reply)]",
 "barrier_layer_held": 0, "rum_probe_rule_updates": 0, "rum_probes_injected": 0,
 "fault_events": {"delay-spike.delay_spikes": 1},
 "trace": {"technique": "timeout", "kind": "scenario", "events": [
  {"ts": 0.0, "phase": "hw-activated", "switch": "S1", "xid": 1},
  {"ts": 0.0, "phase": "hw-activated", "switch": "S3", "xid": 2},
  {"ts": 0.05, "phase": "update-issued", "switch": "S2", "xid": 3, "detail": "new-path"}],
  "seed": 2, "metrics": {"fault.delay-spike.delay_spikes": 1,
  "controller.pending_acks": [[0.01, 0.0], [0.02, 0.0]],
  "dataplane.occupancy": [[0.01, 2.0], [0.02, 2.0]],
  "kernel.pending_events": [[0.01, 1.0], [0.02, 1.0]],
  "net.dropped_packets": [[0.01, 0.0], [0.02, 0.0]],
  "rum.unconfirmed": [[0.01, 0.0], [0.02, 0.0]],
  "switch.pending_dataplane_ops": [[0.01, 0.0], [0.02, 0.0]]},
  "meta": {"topology": "triangle", "faults": "delay-spike(probability=1.0,spike=0.3)@S2",
  "kernel": {"now": 0.85, "pending": 2, "steps_executed": 147, "sequence": 149}}}}
""")


class TestPayloadsWithTraceMetrics:
    """Traces no longer carry sampled metrics; what was stored with them
    still loads, keeps its digest and verifies."""

    def test_the_record_loads_keeps_its_digest_and_drops_the_metrics(self):
        from repro.session import RunRecord

        payload = _PAYLOAD_WITH_TRACE_METRICS
        record = RunRecord.from_dict(payload)
        assert record.digest() == "b7146b52aad68398"
        assert [event.xid for event in record.trace.events] == [1, 2, 3]
        assert record.trace.meta == payload["trace"]["meta"]
        again = record.as_dict()
        assert "metrics" not in again["trace"]
        assert again == {**payload, "trace": {key: value for key, value
                                              in payload["trace"].items()
                                              if key != "metrics"}}

    def test_a_store_object_holding_it_still_verifies(self, tmp_path):
        store = RunStore(tmp_path / "store")
        digest = store.put_record(_PAYLOAD_WITH_TRACE_METRICS)
        assert digest == "b7146b52aad68398"
        assert store.verify() == []
        assert store.load(digest)["record"] == _PAYLOAD_WITH_TRACE_METRICS


class TestStoreCli:
    def test_ingest_query_show_verify_gc(self, tmp_path, capsys):
        results = _campaign(tmp_path)
        store_dir = str(tmp_path / "store")
        assert store_main(["--store", store_dir,
                           "ingest", str(results)]) == 0
        assert store_main(["--store", store_dir, "query",
                           "--technique", "timeout"]) == 0
        out = capsys.readouterr().out
        assert "timeout" in out and "general" not in out

        digest = RunStore(tmp_path / "store").digests()[0]
        assert store_main(["--store", store_dir, "show", digest[:8],
                           "--format", "json"]) == 0
        shown = json.loads(capsys.readouterr().out)
        assert shown["digest"] == digest

        assert store_main(["--store", store_dir, "verify"]) == 0
        assert store_main(["--store", store_dir, "gc"]) == 0

    def test_query_json_format(self, tmp_path, capsys):
        results = _campaign(tmp_path)
        store_dir = str(tmp_path / "store")
        store_main(["--store", store_dir, "ingest", str(results)])
        capsys.readouterr()
        assert store_main(["--store", store_dir, "query",
                           "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 2
        assert {row["technique"] for row in rows} == {"timeout", "general"}

    def test_verify_reports_problems_nonzero(self, tmp_path, capsys):
        store = RunStore(tmp_path / "store")
        store.index_encoding({"ghost": True}, "f" * 16)
        assert store_main(["--store", str(tmp_path / "store"),
                           "verify"]) == 1
        assert "points at no object" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["verify", "gc", "query"])
    def test_a_missing_store_is_refused_and_never_created(
            self, tmp_path, capsys, command):
        # A mistyped --store must not pass for an empty, healthy store.
        typo = tmp_path / "stroe"
        assert store_main(["--store", str(typo), command]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: no run store at {typo}\n"
        assert captured.out == ""
        assert not typo.exists()

    def test_unknown_digest_exits_2(self, tmp_path, capsys):
        RunStore(tmp_path / "store")  # materialize nothing
        code = store_main(["--store", str(tmp_path / "store"),
                           "show", "ffff"])
        assert code == 2
        assert "no stored run" in capsys.readouterr().err

    def test_show_two_stored_runs_names_first_divergence(
            self, tmp_path, capsys):
        store = RunStore(tmp_path / "store")
        left = store.put_record(_record_payload(technique="timeout"))
        right = store.put_record(_record_payload(technique="general"))
        code = store_main(["--store", str(tmp_path / "store"),
                           "show", left[:8], right[:8]])
        assert code == 1  # differences found
        out = capsys.readouterr().out
        assert "first divergence at t=" in out
        assert "phase" in out

    def test_show_two_runs_json_schema(self, tmp_path, capsys):
        store = RunStore(tmp_path / "store")
        left = store.put_record(_record_payload(technique="timeout"))
        right = store.put_record(_record_payload(technique="general"))
        store_main(["--store", str(tmp_path / "store"),
                    "show", left, right, "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["left"] == left
        assert payload["traced"] is True
        assert payload["divergence"]["switch"]
        assert payload["divergence"]["phase"]
        assert isinstance(payload["divergence"]["ts"], float)

    def test_show_identical_runs_exits_zero(self, tmp_path, capsys):
        store = RunStore(tmp_path / "store")
        digest = store.put_record(_record_payload())
        code = store_main(["--store", str(tmp_path / "store"),
                           "show", digest, digest])
        assert code == 0
        assert "identical outcome" in capsys.readouterr().out

    def test_show_two_ingested_summaries_uses_attached_trace_shards(
            self, tmp_path, capsys):
        # Campaign summaries carry no inline trace; the diff falls back to
        # each run's attached Chrome shard and still aligns lifecycles.
        results = _campaign(tmp_path, trace=True)
        store = RunStore(tmp_path / "store")
        store.ingest(results)
        left, right = store.digests()
        code = store_main(["--store", str(tmp_path / "store"),
                           "show", left, right, "--format", "json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["traced"] is True
        assert payload["divergence"] is not None


class TestShow:
    """``show REF [REF]``: every REF kind, and both two-REF forms."""

    def test_a_results_file_shows_its_campaign_report(self, tmp_path, capsys):
        from repro.campaign.report import render_report

        results = _campaign(tmp_path)
        store_dir = tmp_path / "store"
        assert store_main(["--store", str(store_dir), "show",
                           str(results)]) == 0
        assert capsys.readouterr().out == render_report(results) + "\n"
        assert store_main(["--store", str(store_dir), "show", str(results),
                           "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == load_records(results)
        assert not store_dir.exists()

    def test_a_record_file_shows_its_summary(self, tmp_path, capsys):
        from repro.session.record import outcome_digest

        payload = _record_payload(trace=False)
        path = tmp_path / "run.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        store_dir = tmp_path / "store"
        assert store_main(["--store", str(store_dir), "show", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("Run run.json\n")
        assert outcome_digest(payload) in out
        assert "Per-switch activation-gap summary" in out
        assert "Rule lifecycle timeline" not in out
        assert store_main(["--store", str(store_dir), "show", str(path),
                           "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == payload
        assert not store_dir.exists()

    def test_a_traced_stored_run_shows_its_timeline_and_fault_overlay(
            self, tmp_path, capsys):
        params = ScenarioParams(seed=7, flow_count=2, trace=True,
                                faults="delay-spike(probability=0.4)")
        payload = run_scenario("path-migration", "timeout", params).as_dict()
        store = RunStore(tmp_path / "store")
        digest = store.put_record(payload)
        assert store_main(["--store", str(store.root), "show",
                           digest[:8]]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"Run {digest}\n")
        assert "Rule lifecycle timeline — timeout" in out
        assert "Fault overlay" in out
        assert "open rules:" in out  # the spike, and the rules in flight
        # The timeline carries the gap summary: it is printed once.
        assert out.count("Per-switch activation-gap summary") == 1

    def test_a_cell_id_shows_that_cell_with_its_shard_timeline(
            self, tmp_path, capsys):
        results = _campaign(tmp_path, trace=True)
        store = RunStore(tmp_path / "store")
        store.ingest(results)
        for record in load_records(results):
            assert store_main(["--store", str(store.root), "show",
                               record["cell_id"]]) == 0
            out = capsys.readouterr().out
            assert out.startswith(f"Run {record['digest']}\n")
            assert (f"Rule lifecycle timeline — {record['technique']}"
                    in out)
            assert "Fault overlay" in out

    def test_an_index_key_wins_over_a_prefix_match(self, tmp_path, capsys):
        store = RunStore(tmp_path / "store")
        named = store.put_record(_record_payload(technique="timeout",
                                                 trace=False))
        other = store.put_record(_record_payload(technique="general",
                                                 trace=False))
        # An index key that is also a prefix of the other run's digest.
        (store.root / "index" / "specs.json").write_text(
            json.dumps({other[:6]: named}), encoding="utf-8")
        assert store_main(["--store", str(store.root), "show",
                           other[:6]]) == 0
        assert capsys.readouterr().out.startswith(f"Run {named}\n")

    @pytest.mark.parametrize("ref", ["ffff", "missing.jsonl", "missing.json"])
    def test_an_unknown_ref_exits_2_and_names_it(self, tmp_path, capsys, ref):
        store_dir = tmp_path / "store"
        assert store_main(["--store", str(store_dir), "show", ref]) == 2
        err = capsys.readouterr().err
        assert repr(ref) in err
        # A results or record file is named a file, never a digest.
        if ref.endswith((".json", ".jsonl")):
            assert "does not exist" in err and "digest" not in err
        else:
            assert "no stored run matches digest" in err
        assert not store_dir.exists()

    def test_a_run_against_a_results_file_exits_2(self, tmp_path, capsys):
        results = _campaign(tmp_path)
        store = RunStore(tmp_path / "store")
        store.ingest(results)
        digest = store.digests()[0]
        for refs in ([digest, str(results)], [str(results), digest],
                     [str(store.root)]):
            assert store_main(["--store", str(store.root), "show",
                               *refs]) == 2
            assert "cannot show" in capsys.readouterr().err

    def test_a_results_file_against_another_is_the_differential_table(
            self, tmp_path, capsys):
        from repro.campaign.report import render_report

        left = _campaign(tmp_path)
        right_dir = tmp_path / "right"
        right_dir.mkdir()
        right = _campaign(right_dir)
        assert store_main(["--store", str(tmp_path / "store"), "show",
                           str(left), str(right)]) == 0
        out = capsys.readouterr().out
        baseline = RunStore(tmp_path / "store").read(str(right))
        assert out == render_report(left, baseline) + "\n"
        assert "2 unchanged, 0 changed, 0 new, 0 only in baseline" in out
