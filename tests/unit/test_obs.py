"""Tests for the observability subsystem: the collecting tracer, lifecycle
event collection through a real traced session (the tracer lives and dies
with the session's simulator), trace-off digest transparency, pinned traces
and disarmed configs, the Chrome exporter, and the timeline analysis."""

import hashlib
import json
from collections import Counter

import pytest

from repro.obs import (
    LIFECYCLE_PHASES,
    PHASE_ACK_RECEIVED,
    PHASE_ACK_SENT,
    PHASE_FAULT,
    PHASE_HW_ACTIVATED,
    PHASE_MSG_SENT,
    PHASE_SWITCH_RECEIVED,
    PHASE_UPDATE_ISSUED,
    TraceEvent,
    TraceLog,
    Tracer,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.export import chrome_trace_json
from repro.scenarios import ScenarioParams, run_scenario, scenario_session


def _quick_params(**overrides):
    defaults = dict(flow_count=2, warmup=0.1, grace=0.2,
                    max_update_duration=5.0, seed=7)
    defaults.update(overrides)
    return ScenarioParams(**defaults)


# ---------------------------------------------------------------------------
# Collecting tracer
# ---------------------------------------------------------------------------

class TestTracer:
    def test_collects_events_and_meta(self):
        tr = Tracer(technique="barrier", kind="scenario", seed=3)
        tr.rule(PHASE_UPDATE_ISSUED, 0.5, "S1", 7, detail="install")
        tr.fault(0.6, "S2", "delay-spike.activations")
        log = tr.finish(meta={"topology": "triangle"})
        assert log.technique == "barrier"
        assert log.kind == "scenario"
        assert log.seed == 3
        assert len(log) == 2
        assert Counter(event.phase for event in log.events) == {
            PHASE_UPDATE_ISSUED: 1, PHASE_FAULT: 1}
        assert log.meta["topology"] == "triangle"
        assert set(log.as_dict()) == {"technique", "kind", "seed", "events", "meta"}

    def test_a_raising_traced_session_leaves_the_next_bare_session_untraced(self):
        def boom(_network, _flows):
            raise RuntimeError("boom")

        traced = scenario_session("path-migration", "general",
                                  _quick_params(trace=True))
        traced.workload.build_plan = boom
        with pytest.raises(RuntimeError, match="boom"):
            traced.run()
        bare = run_scenario("path-migration", "general", _quick_params())
        assert bare.trace is None
        assert "trace" not in bare.as_dict()


# ---------------------------------------------------------------------------
# Event and log serialization
# ---------------------------------------------------------------------------

class TestEventSchema:
    def test_event_dict_omits_empty_fields(self):
        bare = TraceEvent(1.0, PHASE_MSG_SENT)
        assert bare.as_dict() == {"ts": 1.0, "phase": PHASE_MSG_SENT}
        full = TraceEvent(1.0, PHASE_ACK_SENT, "S1", 9, "barrier-reply")
        assert full.as_dict() == {"ts": 1.0, "phase": PHASE_ACK_SENT,
                                  "switch": "S1", "xid": 9,
                                  "detail": "barrier-reply"}

    def test_event_round_trip(self):
        event = TraceEvent(2.5, PHASE_HW_ACTIVATED, "S2", 11, "add")
        assert TraceEvent.from_dict(event.as_dict()) == event

    def test_log_round_trip(self):
        log = TraceLog(technique="timeout", kind="scenario", seed=5,
                       events=[TraceEvent(0.1, PHASE_UPDATE_ISSUED, "S1", 1)],
                       meta={"faults": "none"})
        back = TraceLog.from_dict(log.as_dict())
        assert back.technique == "timeout"
        assert back.seed == 5
        assert back.events == log.events
        assert back.meta == {"faults": "none"}

    def test_empty_log_is_falsy(self):
        assert not TraceLog()
        assert TraceLog(events=[TraceEvent(0.0, PHASE_FAULT)])


# ---------------------------------------------------------------------------
# Traced sessions end to end
# ---------------------------------------------------------------------------

class TestTracedSession:
    @pytest.fixture(scope="class")
    def traced_record(self):
        return run_scenario("path-migration", "general",
                            _quick_params(trace=True))

    def test_trace_off_is_digest_identical(self, traced_record):
        untraced = run_scenario("path-migration", "general", _quick_params())
        assert untraced.trace is None
        assert untraced.digest() == traced_record.digest()

    def test_lifecycle_phases_covered(self, traced_record):
        log = traced_record.trace
        assert log is not None and log
        phases = Counter(event.phase for event in log.events)
        for phase in LIFECYCLE_PHASES:
            assert phases[phase] > 0, f"no {phase} events traced"

    def test_kernel_stats_in_meta(self, traced_record):
        kernel = traced_record.trace.meta["kernel"]
        assert kernel["steps_executed"] > 0

    def test_record_round_trips_with_trace(self, traced_record):
        from repro.session import RunRecord

        payload = traced_record.as_dict()
        assert payload["trace"]["events"]
        back = RunRecord.from_dict(json.loads(json.dumps(payload)))
        assert back.trace is not None
        assert back.trace.events == traced_record.trace.events
        assert back.digest() == traced_record.digest()

    def test_untraced_record_payload_has_no_trace_key(self):
        untraced = run_scenario("path-migration", "general", _quick_params())
        assert "trace" not in untraced.as_dict()

    def test_chrome_export_validates(self, traced_record):
        payload = json.loads(chrome_trace_json(traced_record.trace))
        assert validate_chrome_trace(payload) is None
        json.dumps(payload)  # must serialize
        names = {event["name"] for event in payload["traceEvents"]}
        assert PHASE_HW_ACTIVATED in names
        assert any(name.startswith("rule ") for name in names)

    def test_the_disarmed_session_config_is_pinned(self):
        # A disarmed subsystem omits its key (or keeps the one it always
        # had): no ``trace`` or ``recovery`` key appears here.
        config = scenario_session("path-migration", "general",
                                  ScenarioParams(flow_count=2, seed=7)).config()
        assert "trace" not in config
        assert hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest() == (
            "3dbd1388a8652118f666d277b175918141da0141f352f88ddca8d3c6bfc767c5")


#: ``(scenario, technique, faults, events, sha256 of the sorted-key
#: ``TraceLog.as_dict()``, sha256 of the written Chrome shard)``.
_PINNED_TRACES = [
    ("rolling-upgrade", "barrier", None, 340,
     "d3b2c7c161bb7bbd977f33be4e748177b96aadad904f1118ee0b1020d050dd99",
     "62acf39835e3685e72a0aa5dca6dd1796c104d6469914d3205ea9be09f3d664e"),
    ("fault-sweep", "general", None, 124,
     "31adad9b08f26731b5b2f8409447952ff4b14bd42cd4f839dd47715f36a90752",
     "feab83cbb786211112ad4cb030b23ed1008c52cc9ec18fedd0c6be8ab1109b89"),
    ("path-migration", "timeout", "delay-spike(probability=1.0,spike=0.3)@L1", 116,
     "3b81024d37998bf31fb1943b854390a32a727af0ad79a4b73a1fa04a0a37996e",
     "58a95e7231e291670ea5b4a6ceee8286cbbbc469ee8ab323611c5e7a8afcc9bc"),
]


def test_the_traces_of_three_traced_cells_are_pinned(tmp_path):
    # Every emission site, its order and its payload: a moved or dropped
    # event changes these hashes even where the event count holds.  Events
    # carry xids, which every session numbers from 1, so each row is the
    # cell's trace wherever it runs.  The log's ``meta`` also carries the
    # kernel's counters (``meta.kernel``), so a changed step count moves the
    # log hash and not the Chrome one, which hashes the shard's bytes as
    # written.
    observed = []
    for scenario, technique, faults, _events, _log, _chrome in _PINNED_TRACES:
        extra = {"faults": faults} if faults else {}
        trace = run_scenario(scenario, technique,
                             ScenarioParams(flow_count=4, rate_pps=25.0, seed=1,
                                            trace=True, **extra)).trace
        shard = tmp_path / f"{scenario}.trace.json"
        write_chrome_trace(trace, shard)
        observed.append((scenario, technique, faults, len(trace.events),
                         hashlib.sha256(json.dumps(trace.as_dict(), sort_keys=True)
                                        .encode()).hexdigest(),
                         hashlib.sha256(shard.read_bytes()).hexdigest()))
    assert observed == [tuple(row) for row in _PINNED_TRACES]


class TestValidateChromeTrace:
    def test_rejects_non_object(self):
        assert validate_chrome_trace([]) is not None

    def test_rejects_missing_or_empty_events(self):
        assert "missing" in validate_chrome_trace({})
        assert "empty" in validate_chrome_trace({"traceEvents": []})

    def test_rejects_bad_event_shape(self):
        assert "missing keys" in validate_chrome_trace(
            {"traceEvents": [{"name": "x", "ph": "i"}]})
        assert "unknown phase" in validate_chrome_trace(
            {"traceEvents": [{"name": "x", "ph": "?", "ts": 0,
                              "pid": 1, "tid": 1}]})
        assert "lacks numeric dur" in validate_chrome_trace(
            {"traceEvents": [{"name": "x", "ph": "X", "ts": 0,
                              "pid": 1, "tid": 1}]})


# ---------------------------------------------------------------------------
# Timeline analysis
# ---------------------------------------------------------------------------

def _synthetic_log():
    """Two rules on two switches: one acked after activation (safe), one
    acked early and one acked but never activated (the paper's failures)."""
    return TraceLog(technique="timeout", kind="scenario", events=[
        TraceEvent(0.10, PHASE_UPDATE_ISSUED, "S1", 1),
        TraceEvent(0.11, PHASE_MSG_SENT, "ctl-S1", 1),
        TraceEvent(0.12, PHASE_SWITCH_RECEIVED, "S1", 1),
        TraceEvent(0.20, PHASE_HW_ACTIVATED, "S1", 1),
        TraceEvent(0.30, PHASE_ACK_SENT, "S1", 1, "barrier-reply"),
        TraceEvent(0.31, PHASE_ACK_RECEIVED, "S1", 1),

        TraceEvent(0.10, PHASE_UPDATE_ISSUED, "S2", 2),
        TraceEvent(0.15, PHASE_ACK_RECEIVED, "S2", 2),
        TraceEvent(0.45, PHASE_HW_ACTIVATED, "S2", 2),

        TraceEvent(0.10, PHASE_UPDATE_ISSUED, "S2", 3),
        TraceEvent(0.16, PHASE_ACK_RECEIVED, "S2", 3),

        TraceEvent(0.25, PHASE_FAULT, "S2", detail="delay-spike.activations"),
    ])


def _synthetic_ledger():
    """The activation ledger of the run :func:`_synthetic_log` traced."""
    from repro.analysis.activation import LedgerRow

    return [LedgerRow("S1", 1, "", 0.20, 0.30, "barrier-reply", 0.31),
            LedgerRow("S2", 2, "", 0.45, None, None, 0.15),
            LedgerRow("S2", 3, "", None, None, None, 0.16)]


class TestTimeline:
    def test_lifecycles_and_gaps(self):
        from repro.analysis.timeline import activation_gap_summary, rule_lifecycles

        cycles = rule_lifecycles(_synthetic_log())
        safe = cycles[("S1", 1)]
        assert safe.msg_sent == 0.11  # matched via the ctl-S1 channel
        assert safe.confirmed_by == "barrier-reply"
        never = cycles[("S2", 3)]
        assert never.ack_received == 0.16 and never.hw_activated is None

        # The gaps are the ledger's, which agrees with the trace.
        summary = activation_gap_summary(_synthetic_ledger())
        assert summary["S1"]["min"] == pytest.approx(0.11)
        assert summary["S2"]["min"] == pytest.approx(-0.30)

    def test_gap_summary_counts_early_and_never(self):
        from repro.analysis.timeline import activation_gap_summary

        summary = activation_gap_summary(_synthetic_ledger())
        assert summary["S1"]["early"] == 0
        assert summary["S2"]["rules"] == 2
        assert summary["S2"]["early"] == 1
        assert summary["S2"]["never"] == 1
        # never-activated rules are excluded from the finite stats
        assert summary["S2"]["mean"] == pytest.approx(-0.30)

    def test_render_timeline_report(self):
        from repro.analysis.timeline import render_timeline_report

        text = render_timeline_report(_synthetic_log(), _synthetic_ledger())
        assert "Rule lifecycle timeline — timeout" in text
        assert "never" in text
        assert "-300.00ms" in text
        assert "unsafe early ack" in text

    def test_fault_overlay_lists_open_rules(self):
        from repro.analysis.timeline import fault_overlaps, render_fault_overlay

        overlaps = fault_overlaps(_synthetic_log())
        assert len(overlaps) == 1
        # At t=0.25 rule S1/1 is already hw-active; S2/2 and S2/3 are open.
        assert overlaps[0].open_rules == [("S2", 2), ("S2", 3)]
        text = render_fault_overlay(_synthetic_log())
        assert "delay-spike.activations" in text
        assert "S2/2, S2/3" in text

    def test_empty_log_renders_placeholder(self):
        from repro.analysis.timeline import (
            render_fault_overlay,
            render_timeline_report,
        )

        assert "(no rule lifecycle events in trace)" in \
            render_timeline_report(TraceLog(), [])
        assert "(no fault activations in trace)" in \
            render_fault_overlay(TraceLog())


# ---------------------------------------------------------------------------
# Traced runs under fault: the acceptance-criterion scenario
# ---------------------------------------------------------------------------

class TestTracedFaultRun:
    def test_delay_spike_produces_measurable_gap(self):
        from repro.analysis.timeline import activation_gap_summary

        record = run_scenario(
            "path-migration", "timeout",
            _quick_params(topology="triangle",
                          faults="delay-spike(probability=1.0,spike=0.3)@S2",
                          trace=True))
        log = record.trace
        assert log is not None
        summary = activation_gap_summary(record.ledger)
        assert "S2" in summary
        # The spiked switch acknowledges before its hardware activates.
        assert summary["S2"]["early"] > 0
        # The overlay has one fault event per activation the record counts.
        details = Counter(event.detail for event in log.events if event.phase == PHASE_FAULT)
        assert details == record.fault_events and "delay-spike.delay_spikes" in details
