"""The activation ledger: one row per plan operation, on every run.

Each row holds the rule's first data-plane activation against both
acknowledgment clocks — RUM's confirmation and the controller's ack.  The
ledger must agree with the trace wherever a run was traced, count only the
plan's own operations (not recovery's shadow replays in the controller's
ack log), and keep a rule that was acknowledged but never activated: Figure
8 counts it as acknowledged early.
"""

import json

import pytest

from repro.analysis.activation import ActivationDelays
from repro.campaign.grid import CampaignCell
from repro.experiments.common import RuleInstallParams, run_rule_install
from repro.experiments.figures import FIGURES
from repro.obs.events import PHASE_ACK_RECEIVED, PHASE_HW_ACTIVATED
from repro.scenarios.base import SCENARIOS
from repro.scenarios.engine import run_scenario
from repro.session import engine
from repro.session.record import RunRecord
from repro.switches.profiles import reordering_switch_profile

_ROLLING = SCENARIOS["rolling-upgrade"].default_timeline

#: The reference benchmark's smoke ``outage-traced`` cells.
OUTAGE_CELLS = [
    ("rolling-upgrade", "barrier", 1, _ROLLING),
    ("correlated-tor-outage", "general", 2,
     SCENARIOS["correlated-tor-outage"].default_timeline),
    ("fault-sweep", "timeout", 3,
     "ack-loss(probability=0.3)+delay-spike(probability=0.3)"),
]


def _outage(scenario, technique, seed, fault, flow_count=4, trace=True):
    cell = CampaignCell(scenario=scenario, technique=technique, seed=seed,
                        flow_count=flow_count, rate_pps=25.0, fault=fault,
                        recovery="on", trace=trace)
    return run_scenario(cell.scenario, cell.technique, cell.scenario_params())


@pytest.mark.parametrize("scenario,technique,seed,fault", OUTAGE_CELLS,
                         ids=[cell[0] for cell in OUTAGE_CELLS])
def test_the_ledger_agrees_with_the_trace(scenario, technique, seed, fault):
    record = _outage(scenario, technique, seed, fault)
    first = {}
    for event in record.trace.events:
        if event.phase in (PHASE_HW_ACTIVATED, PHASE_ACK_RECEIVED):
            first.setdefault((event.phase, event.switch, event.xid), event.ts)
    acked = {(switch, xid) for phase, switch, xid in first
             if phase == PHASE_ACK_RECEIVED}
    assert acked
    assert {(row.switch, row.xid) for row in record.ledger
            if row.acked_at is not None} == acked
    for row in record.ledger:
        key = (row.switch, row.xid)
        assert row.activated_at == first.get((PHASE_HW_ACTIVATED, *key))
        assert row.acked_at == first.get((PHASE_ACK_RECEIVED, *key))


def test_rows_are_plan_operations_not_the_ack_log(monkeypatch):
    # Recovery replays a crashed switch's rules through the controller: its
    # ack log holds them twice, the plan (and the ledger) once.
    stacks = []
    build = engine.build_control_stack

    def capture(*args, **kwargs):
        stacks.append(build(*args, **kwargs))
        return stacks[-1]

    monkeypatch.setattr(engine, "build_control_stack", capture)
    record = _outage("rolling-upgrade", "barrier", 1, _ROLLING, flow_count=16,
                     trace=False)
    ack_log = [key for key in stacks[0].controller.ack_log if key[0] == "A0-1"]
    rows = [row for row in record.ledger if row.switch == "A0-1"]
    assert (len(ack_log), len(rows)) == (32, 16)


def test_the_ledger_keeps_both_clocks():
    params = RuleInstallParams.quick(rule_count=20, max_unconfirmed=20)
    rum = run_rule_install("general", params).ledger
    assert len(rum) == 20
    # RUM confirms, then the confirmation crosses the channel to the controller.
    assert all(row.activated_at <= row.confirmed_at < row.acked_at for row in rum)
    assert {row.confirmed_by for row in rum} <= {"probe", "fallback-timeout"}
    bare = run_rule_install("no-wait", params).ledger
    assert all(row.confirmed_at is None and row.confirmed_by is None
               and row.acked_at is not None for row in bare)


@pytest.mark.parametrize("label,early", [("sequential", 273),
                                         ("barriers (baseline)", 300),
                                         ("timeout", 173)])
def test_fig8_counts_an_acked_rule_that_never_activates_as_early(label, early):
    # On a switch that reorders, 239 (sequential), 74 (barrier) and 15
    # (timeout) acknowledged rules are still not in the data plane when the
    # run ends; each one is an early acknowledgment, not an omission.
    fig8 = FIGURES["fig8"]
    technique, overrides = {row[0]: row[1:] for row in fig8.rows}[label]
    record = run_rule_install(technique, fig8.params.scaled(
        hardware_profile=reordering_switch_profile(), **overrides))
    activation = record.activation
    assert (activation.negative_count, len(activation.per_rule)) == (early, 300)
    rebuilt = RunRecord.from_dict(json.loads(json.dumps(record.as_dict())))
    assert rebuilt.digest() == record.digest()
    assert rebuilt.ledger == record.ledger


def test_the_digest_sorts_a_never_activated_rule_after_every_time():
    never = (None, 0.5, None)
    left = RunRecord(activation=ActivationDelays("t", {1: never, 2: (0.1, 0.2, 0.1)}))
    right = RunRecord(activation=ActivationDelays("t", {5: (0.1, 0.2, 0.1), 9: never}))
    assert left.digest() == right.digest()


def test_a_payload_without_a_ledger_loads_with_an_empty_one():
    record = run_rule_install("general", RuleInstallParams.quick(
        rule_count=5, max_unconfirmed=5))
    payload = record.as_dict()
    assert len(payload["ledger"]) == 5
    del payload["ledger"]
    legacy = RunRecord.from_dict(payload)
    assert legacy.ledger == [] and legacy.digest() == record.digest()
