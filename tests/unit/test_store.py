"""Tests for the content-addressed run store (``repro.store``).

Covers the object layout (digest-keyed, content-pinned parts), ingest of
campaign results files and standalone record payloads, the spec-encoding
index behind the campaign ``--cache``, ``verify``'s corruption detection,
``gc``, prefix resolution, and the ``python -m repro.store`` CLI.
"""

import json

import pytest

from repro.campaign import CampaignRunner, CampaignSpec, load_records
from repro.scenarios import ScenarioParams, run_scenario
from repro.store import RunStore, StoreError, content_sha1, spec_key
from repro.store.__main__ import main as store_main


def _campaign(tmp_path, **overrides):
    """Run a tiny campaign; returns its results path."""
    results = tmp_path / "results.jsonl"
    defaults = dict(
        scenarios=["path-migration"],
        techniques=["timeout", "general"],
        scales=[1],
        seeds=[1],
        flow_count=2,
        max_update_duration=5.0,
    )
    defaults.update(overrides)
    CampaignRunner(CampaignSpec(**defaults), results, max_workers=2).run()
    return results


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
        results = _campaign(tmp_path)
        store = RunStore(tmp_path / "store")
        store.ingest(results)
        originals = {record["digest"]: record
                     for record in load_records(results)}
        for digest, original in originals.items():
            obj = store.load(digest)
            assert obj["summary"] == original
            # Verbatim means key order too: the cache re-emits these lines.
            assert (json.dumps(obj["summary"]) == json.dumps(original))

    def test_full_record_payload_roundtrip(self, tmp_path):
        from repro.session.record import outcome_digest

        payload = _record_payload()
        store = RunStore(tmp_path / "store")
        digest = store.put_record(payload)
        assert digest == outcome_digest(payload)
        obj = store.load(digest)
        assert obj["record"] == payload
        assert store.lookup(payload["spec"]) == digest

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
        # A full record's labels are the plan's compact form, the same
        # string a campaign axis and ``store query --fault`` use — not the
        # repr of the plan's dict encoding.
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


class TestCachedRecord:
    def test_hit_is_the_verbatim_summary(self, tmp_path):
        results = _campaign(tmp_path)
        store = RunStore(tmp_path / "store")
        store.ingest(results)
        for record in load_records(results):
            hit = store.cached_record(record["cell_id"])
            assert hit == record

    def test_unknown_cell_misses(self, tmp_path):
        store = RunStore(tmp_path / "store")
        assert store.cached_record("deadbeefdeadbeef") is None

    def test_corrupted_summary_refuses_to_hit(self, tmp_path):
        results = _campaign(tmp_path)
        store = RunStore(tmp_path / "store")
        store.ingest(results)
        record = next(iter(load_records(results)))
        obj = store.load(record["digest"])
        obj["summary"]["dropped_packets"] = 10_000  # bit rot
        store.object_path(record["digest"]).write_text(
            json.dumps(obj), encoding="utf-8")
        assert store.cached_record(record["cell_id"]) is None

    def test_digest_mismatch_refuses_to_hit(self, tmp_path):
        results = _campaign(tmp_path)
        store = RunStore(tmp_path / "store")
        store.ingest(results)
        record = next(iter(load_records(results)))
        obj = store.load(record["digest"])
        obj["summary"]["digest"] = "0" * 16
        obj["sha1"]["summary"] = content_sha1(obj["summary"])  # re-pinned!
        store.object_path(record["digest"]).write_text(
            json.dumps(obj), encoding="utf-8")
        # The content pin matches, but the summary no longer claims the
        # object's digest: still a miss.
        assert store.cached_record(record["cell_id"]) is None

    def test_cells_sharing_a_digest_are_not_served_each_others_summary(
            self, tmp_path):
        # ``general`` never depends on an ack that ``ack-loss`` drops, so
        # its faulted and fault-free cells share one outcome digest — and
        # one store object, which keeps only the last-ingested summary.
        spec = CampaignSpec(
            scenarios=["path-migration"], techniques=["barrier", "general"],
            seeds=[1, 2], faults=["none", "ack-loss(probability=0.2)"])
        cold = tmp_path / "cold.jsonl"
        CampaignRunner(spec, cold, max_workers=2).run()
        originals = {record["cell_id"]: record for record in load_records(cold)}
        assert len(originals) == 8
        assert len({record["digest"] for record in originals.values()}) < 8
        store = RunStore(tmp_path / "store")
        store.ingest(cold)
        for cell in spec.cells():
            hit = store.cached_record(cell.cell_id)
            assert hit is None or hit["cell_id"] == cell.cell_id
        warm = tmp_path / "warm.jsonl"
        CampaignRunner(spec, warm, max_workers=2, cache=store).run()
        emitted = {record["cell_id"]: record for record in load_records(warm)}
        assert set(emitted) == set(originals)
        for cell_id, record in emitted.items():
            assert record["config"] == originals[cell_id]["config"]
            assert record["digest"] == originals[cell_id]["digest"]


class TestVerifyAndGc:
    def test_clean_store_verifies(self, tmp_path):
        store = RunStore(tmp_path / "store")
        store.put_record(_record_payload())
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
        assert store_main(["--store", store_dir, "show", digest[:8]]) == 0
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

    def test_unknown_digest_exits_2(self, tmp_path, capsys):
        RunStore(tmp_path / "store")  # materialize nothing
        code = store_main(["--store", str(tmp_path / "store"),
                           "show", "ffff"])
        assert code == 2
        assert "no stored run" in capsys.readouterr().err

    def test_diff_two_stored_runs_names_first_divergence(
            self, tmp_path, capsys):
        store = RunStore(tmp_path / "store")
        left = store.put_record(_record_payload(technique="timeout"))
        right = store.put_record(_record_payload(technique="general"))
        code = store_main(["--store", str(tmp_path / "store"),
                           "diff", left[:8], right[:8]])
        assert code == 1  # differences found
        out = capsys.readouterr().out
        assert "first divergence at t=" in out
        assert "phase" in out

    def test_diff_json_schema(self, tmp_path, capsys):
        store = RunStore(tmp_path / "store")
        left = store.put_record(_record_payload(technique="timeout"))
        right = store.put_record(_record_payload(technique="general"))
        store_main(["--store", str(tmp_path / "store"),
                    "diff", left, right, "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["left"] == left
        assert payload["traced"] is True
        assert payload["divergence"]["switch"]
        assert payload["divergence"]["phase"]
        assert isinstance(payload["divergence"]["ts"], float)

    def test_diff_identical_runs_exits_zero(self, tmp_path, capsys):
        store = RunStore(tmp_path / "store")
        digest = store.put_record(_record_payload())
        code = store_main(["--store", str(tmp_path / "store"),
                           "diff", digest, digest])
        assert code == 0
        assert "identical outcome" in capsys.readouterr().out

    def test_diff_of_ingested_summaries_uses_attached_trace_shards(
            self, tmp_path, capsys):
        # Campaign summaries carry no inline trace; the diff falls back to
        # each run's attached Chrome shard and still aligns lifecycles.
        results = _campaign(tmp_path, trace=True)
        store = RunStore(tmp_path / "store")
        store.ingest(results)
        left, right = store.digests()
        code = store_main(["--store", str(tmp_path / "store"),
                           "diff", left, right, "--format", "json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["traced"] is True
        assert payload["divergence"] is not None
