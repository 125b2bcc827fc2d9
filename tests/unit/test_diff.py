"""Tests for differential run analytics (``repro.campaign.report``).

Synthetic :class:`TraceLog` pairs pin the first-divergence discipline
(earliest anchor, then switch / xid / causal phase order), including the
never-activated (acked, no hardware activation) and negative-gap (unsafe
early ack) lifecycles, whose gap deltas come from the payloads' ledgers;
real scenario runs exercise the end-to-end diff and the summary-level
degradation when one side was not traced.
"""

import json

from repro.analysis.activation import LedgerRow
from repro.analysis.timeline import activation_gap_summary, rule_lifecycles
from repro.campaign.report import (
    FirstDivergence,
    diff_runs,
    first_lifecycle_divergence,
    render_run_diff,
)
from repro.obs.export import chrome_trace_json
from repro.obs.events import (
    PHASE_ACK_RECEIVED,
    PHASE_ACK_SENT,
    PHASE_CONTROL_APPLIED,
    PHASE_HW_ACTIVATED,
    PHASE_SWITCH_RECEIVED,
    PHASE_UPDATE_ISSUED,
    TraceEvent,
    TraceLog,
)
from repro.scenarios import ScenarioParams, run_scenario
from repro.store import RunView

#: A *safe* lifecycle: hardware activates (t=0.035) before the ack is
#: received (t=0.04), so the activation gap is positive.  Listed with
#: ``hw-activated`` last so ``_full()[:-1]`` drops exactly that phase.
FULL_LIFECYCLE = (
    (PHASE_UPDATE_ISSUED, 0.00),
    (PHASE_SWITCH_RECEIVED, 0.01),
    (PHASE_CONTROL_APPLIED, 0.02),
    (PHASE_ACK_SENT, 0.03),
    (PHASE_ACK_RECEIVED, 0.04),
    (PHASE_HW_ACTIVATED, 0.035),
)


def _log(*events):
    log = TraceLog(technique="t", kind="scenario", seed=1)
    log.events.extend(TraceEvent(ts=ts, phase=phase, switch=switch, xid=xid)
                      for switch, xid, phase, ts in events)
    return log


def _full(switch="S1", xid=1, shift=0.0, drop=()):
    """One complete lifecycle for a rule, optionally shifted / truncated."""
    return [(switch, xid, phase, ts + shift)
            for phase, ts in FULL_LIFECYCLE if phase not in drop]


class TestFirstDivergence:
    def test_identical_traces_have_none(self):
        left = _log(*_full())
        right = _log(*_full())
        assert first_lifecycle_divergence(left, right) is None

    def test_missing_phase_is_named_with_time_switch_phase(self):
        left = _log(*_full())
        right = _log(*_full(drop=(PHASE_HW_ACTIVATED,)))
        divergence = first_lifecycle_divergence(left, right)
        assert divergence.switch == "S1"
        assert divergence.xid == 1
        assert divergence.phase == PHASE_HW_ACTIVATED
        assert divergence.ts == 0.035
        assert divergence.left_ts == 0.035
        assert divergence.right_ts is None
        assert divergence.reason == "reached only on left"
        assert divergence.describe() == (
            "first divergence at t=0.0350s: rule S1/1 phase hw-activated — "
            "left 0.0350s, right never (reached only on left)")

    def test_time_shift_is_named(self):
        left = _log(*_full())
        right = _log(*_full()[:-1],
                     ("S1", 1, PHASE_HW_ACTIVATED, 0.06))
        divergence = first_lifecycle_divergence(left, right)
        assert divergence.phase == PHASE_HW_ACTIVATED
        assert divergence.ts == 0.035  # anchored at the earlier side
        assert divergence.reason == "time shifted +25.00ms"

    def test_earliest_anchor_wins_over_later_discrepancies(self):
        # Two discrepancies: xid 2 diverges at t=0.02, xid 1 at t=0.05.
        left = _log(*_full(xid=1), *_full(xid=2, shift=0.0))
        right = _log(*_full(xid=1, drop=(PHASE_HW_ACTIVATED,)),
                     *_full(xid=2, drop=(PHASE_CONTROL_APPLIED,)))
        divergence = first_lifecycle_divergence(left, right)
        assert (divergence.xid, divergence.phase) == (
            2, PHASE_CONTROL_APPLIED)
        assert divergence.ts == 0.02

    def test_rule_present_on_one_side_only(self):
        left = _log(*_full(), *_full(switch="S2", xid=7))
        right = _log(*_full())
        divergence = first_lifecycle_divergence(left, right)
        assert (divergence.switch, divergence.xid) == ("S2", 7)
        assert divergence.phase == PHASE_UPDATE_ISSUED
        assert divergence.reason == "reached only on left"

    def test_as_dict_roundtrip(self):
        divergence = FirstDivergence(ts=0.1, switch="S1", xid=3,
                                     phase=PHASE_ACK_SENT,
                                     left_ts=0.1, right_ts=None)
        payload = divergence.as_dict()
        assert payload["reason"] == "reached only on left"
        json.dumps(payload)


def _payload(technique, *activations):
    """A flat run payload whose ledger holds one S1 rule per activation
    time, each acked at t=0.04 (the :data:`FULL_LIFECYCLE` ack)."""
    return {"technique": technique, "digest": technique * 4,
            "ledger": [list(LedgerRow("S1", xid, "", activated, 0.03, "t", 0.04))
                       for xid, activated in enumerate(activations, start=1)]}


class TestEdgeLifecycles:
    def test_never_activated_rule_counts_as_never_and_still_aligns(self):
        # Acked but never hw-activated: the ledger counts it as ``never``
        # and the diff names the missing activation as the divergence.
        left = _log(*_full())
        right = _log(*_full(drop=(PHASE_HW_ACTIVATED,)))
        assert rule_lifecycles(right)[("S1", 1)].hw_activated is None
        diff = diff_runs(RunView(_payload("a", 0.035), attached_trace=left),
                         RunView(_payload("b", None), attached_trace=right))
        assert diff.gap_deltas["S1"]["never"] == (0, 1)
        assert diff.divergence.phase == PHASE_HW_ACTIVATED

    def test_negative_gap_lifecycle_flows_through_alignment(self):
        # Hardware activation *after* the ack (unsafe early ack) on the
        # right side only: same phases, shifted activation time.
        left = _log(*_full())
        right = _log(*_full()[:-1], ("S1", 1, PHASE_HW_ACTIVATED, 0.09))
        ledger = [LedgerRow("S1", 1, "", 0.09, 0.03, "t", 0.04)]
        assert activation_gap_summary(ledger)["S1"]["early"] == 1
        divergence = first_lifecycle_divergence(left, right)
        assert divergence.phase == PHASE_HW_ACTIVATED
        assert divergence.reason == "time shifted +55.00ms"

    def test_gap_deltas_surface_never_and_negative(self):
        # No traces: the deltas come from the payloads' ledgers alone.
        diff = diff_runs(RunView(_payload("a", 0.035, 0.035)),
                         RunView(_payload("b", 0.09, None)))
        assert not diff.traced
        assert diff.gap_deltas["S1"]["early"] == (0, 1)
        assert diff.gap_deltas["S1"]["never"] == (0, 1)
        assert "early 0 -> 1" in render_run_diff(diff)


def _run(technique, trace=True, seed=7):
    params = ScenarioParams(seed=seed, flow_count=2, trace=trace)
    return run_scenario("path-migration", technique, params).as_dict()


class TestDiffRuns:
    def test_same_run_is_identical(self):
        payload = _run("general")
        diff = diff_runs(RunView(payload), RunView(payload))
        assert diff.identical
        assert diff.changed == []
        assert diff.divergence is None
        assert "identical outcome" in diff.explain()
        rendered = render_run_diff(diff)
        assert "identical" in rendered

    def test_two_runs_of_one_cell_in_one_process_are_identical(self):
        # Every session numbers its own xids, so the second run names its
        # rules exactly as the first: same shard bytes, same ledger, and no
        # lifecycle divergence to report.
        params = ScenarioParams(flow_count=4, seed=1, trace=True)
        first, second = (run_scenario("path-migration", "general", params)
                         for _ in range(2))
        assert chrome_trace_json(first.trace) == chrome_trace_json(second.trace)
        assert first.ledger == second.ledger
        assert first_lifecycle_divergence(first.trace, second.trace) is None
        diff = diff_runs(RunView(first.as_dict()), RunView(second.as_dict()))
        assert diff.identical and diff.divergence is None

    def test_two_techniques_diverge_with_time_switch_phase(self):
        diff = diff_runs(RunView(_run("timeout"), "timeout"),
                         RunView(_run("general"), "general"))
        assert not diff.identical
        assert diff.traced
        assert diff.divergence is not None
        explanation = diff.explain()
        assert "first divergence at t=" in explanation
        assert "phase" in explanation
        rendered = render_run_diff(diff)
        assert "timeout" in rendered and "general" in rendered

    def test_traced_vs_untraced_degrades_to_summary(self):
        diff = diff_runs(RunView(_run("timeout")),
                         RunView(_run("general", trace=False)))
        assert diff.traced is False
        assert diff.divergence is None
        # Summary level still works: the techniques differ, and so do the
        # gaps of their ledgers.
        assert "technique" in diff.changed
        assert diff.gap_deltas
        rendered = render_run_diff(diff)
        assert "no lifecycle alignment" in rendered

    def test_campaign_records_diff_without_traces(self):
        left = {"technique": "timeout", "dropped_packets": 4,
                "digest": "aa"}
        right = {"technique": "general", "dropped_packets": 0,
                 "digest": "bb"}
        diff = diff_runs(RunView(left), RunView(right))
        assert diff.summary["dropped_packets"] == (4, 0)
        assert "dropped_packets: 4 -> 0" in diff.explain()

    def test_float_noise_below_the_printed_precision_is_no_delta(self):
        # Two barrier-timed flows broken for one 10 us gap, which the float
        # sums leave 1e-14 apart: the diff prints 0.0000 on both sides.
        left = {"max_broken_time": 1.0000000000068981e-05,
                "update_duration": 0.6156, "digest": "aa"}
        right = {"max_broken_time": 1.000000000001347e-05,
                 "update_duration": 0.0156, "digest": "bb"}
        diff = diff_runs(RunView(left), RunView(right))
        assert diff.changed == ["update_duration", "digest"]
        assert "max_broken_time" not in render_run_diff(diff)
        assert "max_broken_time" not in diff.as_dict()["changed"]

    def test_two_untraced_runs_report_early_ack_deltas(self):
        # Barrier replies precede hardware activation under a delay spike;
        # general probing never acks early.  Neither run is traced.
        params = ScenarioParams(seed=7, flow_count=4,
                                faults="delay-spike(probability=0.3,spike=1.0)")
        runs = {technique: run_scenario("path-migration", technique, params)
                for technique in ("barrier", "general")}
        for left, right in ((runs["barrier"].as_dict(), runs["general"].as_dict()),
                            (_cell("barrier"), _cell("general"))):
            diff = diff_runs(RunView(left), RunView(right))
            assert not diff.traced
            early = {switch: stats["early"]
                     for switch, stats in diff.gap_deltas.items()
                     if "early" in stats}
            assert any(barrier > 0 == general
                       for barrier, general in early.values()), early
            assert "early" in render_run_diff(diff)

    def test_as_dict_is_jsonable_and_complete(self):
        diff = diff_runs(RunView(_run("timeout")), RunView(_run("general")))
        payload = diff.as_dict()
        json.dumps(payload)
        assert payload["traced"] is True
        assert payload["divergence"]["phase"]
        assert payload["explanation"] == diff.explain()


def _cell(technique):
    """An untraced campaign record: its gaps ride as ``activation_gaps``."""
    from repro.campaign.grid import CampaignCell
    from repro.campaign.runner import run_cell

    return run_cell(CampaignCell(
        scenario="path-migration", technique=technique, seed=7, flow_count=4,
        fault="delay-spike(probability=0.3,spike=1.0)"))


class TestRunViewSummary:
    def test_full_record_payload_is_flattened(self):
        payload = _run("general")
        flat = RunView(payload).summary
        assert flat["technique"] == "general"
        assert "digest" in flat
        assert "schema" not in flat

    def test_campaign_record_passes_through(self):
        record = {"technique": "general", "status": "ok"}
        assert RunView(record).summary == record
