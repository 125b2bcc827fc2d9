"""Tests for the controller-side recovery subsystem: the ``RecoveryPolicy``
codecs, the guarantee that recovery-off runs stay byte-identical to the
pre-recovery code (digest pins), shadow-table resync on switch restore, the
retransmission/fail machinery on the controller, switch lifecycle edge cases,
the timeline-DSL expansion (groups, rolling waves, target selectors), the
campaign recovery axis, and the headline result: under a switch crash a
recovery-enabled run reinstalls every wiped rule and loses strictly fewer
packets than the same run without recovery."""

import json

import pytest

from repro.campaign import CampaignSpec, run_cell
from repro.campaign.grid import CampaignCell
from repro.controller import AckMode, Controller, PlanExecutor, UpdatePlan
from repro.experiments.common import (
    EndToEndParams,
    migration_session,
    run_path_migration,
)
from repro.faults import FaultPlan, FaultSpec, GroupSpec, RollingSpec, resolve_targets
from repro.net import Network, triangle_topology
from repro.openflow import FlowMod, Match, OutputAction
from repro.recovery import NO_RECOVERY, RecoveryManager, RecoveryPolicy, ShadowStore
from repro.scenarios import SCENARIOS, ScenarioParams, get_scenario, run_scenario
from repro.scenarios.fault_sweep import DEFAULT_FAULT_MIX
from repro.scenarios.generators import fat_tree
from repro.sim import Simulator

#: The pre-recovery (and pre-fault-subsystem) digest of the fixed-seed
#: barrier migration run — same pin as ``test_faults.FAULT_FREE_DIGESTS``.
MIGRATION_BARRIER_DIGEST = "e74d41be727e0439"


def _migration_params(**overrides):
    defaults = dict(flow_count=4, rate_pps=250.0, seed=7, warmup=0.1,
                    grace=0.2, max_update_duration=5.0)
    defaults.update(overrides)
    return EndToEndParams(**defaults)


def _crashed_migration(technique, recovery,
                       # S2 carries only controller-installed rules (the
                       # migration update), so its wipe is fully shadowed;
                       # preinstalled rules on S1/S3 are deliberately outside
                       # the shadow store's coverage.
                       plan="switch-crash(at=0.3,restart_after=0.5)@S2",
                       **overrides):
    overrides.setdefault("grace", 1.2)
    spec = migration_session(technique, _migration_params(**overrides))
    spec.faults = FaultPlan.from_string(plan)
    spec.knobs.recovery = recovery
    return spec.run()


def _recovering_controller(policy, ack_mode=AckMode.BARRIER):
    sim = Simulator()
    network = Network(sim, triangle_topology(), seed=5)
    controller = Controller(sim, ack_mode=ack_mode)
    for name in network.switch_names():
        controller.connect_switch(name, network.controller_endpoint(name))
    manager = RecoveryManager(sim, controller, network, policy=policy)
    manager.attach()
    network.start()
    return sim, network, controller, manager


def _flowmod(index=1, out_port=1):
    return FlowMod(Match(ip_src=f"10.0.0.{index}"), [OutputAction(out_port)],
                   priority=100)


# ---------------------------------------------------------------------------
# Policy codecs
# ---------------------------------------------------------------------------

class TestRecoveryPolicy:
    def test_defaults_encode_as_on(self):
        assert RecoveryPolicy().to_string() == "on"
        assert RecoveryPolicy(enabled=False).to_string() == "off"
        assert RecoveryPolicy().active
        assert not RecoveryPolicy(enabled=False).active
        assert not RecoveryPolicy(resync=False, retransmit=False).active

    @pytest.mark.parametrize("text", list(NO_RECOVERY) + ["OFF", " none "])
    def test_no_recovery_spellings(self, text):
        policy = RecoveryPolicy.from_string(text)
        assert not policy.enabled and not policy.active

    def test_string_round_trip_with_overrides(self):
        policy = RecoveryPolicy(ack_timeout=0.1, max_attempts=6, resync=False)
        text = policy.to_string()
        assert text == "on(resync=false,ack_timeout=0.1,max_attempts=6)"
        assert RecoveryPolicy.from_string(text) == policy

    def test_dict_round_trip(self):
        policy = RecoveryPolicy(backoff=1.5, resync_delay=0.02)
        payload = json.loads(json.dumps(policy.as_dict()))
        assert RecoveryPolicy.from_dict(payload) == policy
        assert RecoveryPolicy.from_dict(None) is None

    def test_from_string_rejects_garbage(self):
        with pytest.raises(ValueError, match="cannot parse recovery policy"):
            RecoveryPolicy.from_string("maybe")
        with pytest.raises(ValueError, match="unknown recovery parameter"):
            RecoveryPolicy.from_string("on(retries=3)")
        with pytest.raises(ValueError, match="not key=value"):
            RecoveryPolicy.from_string("on(fast)")

    @pytest.mark.parametrize("text", ["on(ack_timeout=nan)", "on(backoff=nan)",
                                      "on(resync_delay=inf)"])
    def test_from_string_rejects_non_finite_numbers(self, text):
        with pytest.raises(ValueError, match="not a finite number"):
            RecoveryPolicy.from_string(text)

    @pytest.mark.parametrize("text", ["on(resync=maybe)", "on(retransmit=1)",
                                      "on(retransmit=)"])
    def test_from_string_booleans_are_strict(self, text):
        # A value read as False would disable the mechanism without a word.
        with pytest.raises(ValueError, match="not true or false"):
            RecoveryPolicy.from_string(text)
        assert RecoveryPolicy.from_string("on(resync=false)").resync is False
        assert RecoveryPolicy.from_string("on(retransmit=TRUE)").retransmit is True

    @pytest.mark.parametrize("bad", [
        dict(ack_timeout=0.0), dict(backoff=0.5),
        dict(max_attempts=0), dict(resync_delay=-1.0),
    ])
    def test_validate_rejects_bad_fields(self, bad):
        with pytest.raises(ValueError):
            RecoveryPolicy(**bad).validate()


# ---------------------------------------------------------------------------
# Recovery-off stays byte-identical (digest pins)
# ---------------------------------------------------------------------------

class TestRecoveryOffByteIdentical:
    def test_absent_policy_reproduces_fault_free_digest(self):
        record = run_path_migration("barrier", _migration_params())
        assert record.digest() == MIGRATION_BARRIER_DIGEST
        assert record.recovery == {}
        assert "recovery" not in record.as_dict()

    def test_disabled_policy_is_identical_to_absent(self):
        spec = migration_session("barrier", _migration_params())
        spec.knobs.recovery = RecoveryPolicy(enabled=False)
        record = spec.run()
        assert record.digest() == MIGRATION_BARRIER_DIGEST
        assert record.recovery == {}
        # The knob rides in the config when set, but never changes the run.
        assert spec.config()["knobs"]["recovery"]["enabled"] is False

    def test_unset_policy_omitted_from_knob_config(self):
        spec = migration_session("barrier", _migration_params())
        assert "recovery" not in spec.config()["knobs"]

    def test_armed_recovery_on_fault_free_run_changes_nothing(self):
        baseline = run_path_migration("general", _migration_params())
        spec = migration_session("general", _migration_params())
        spec.knobs.recovery = RecoveryPolicy()
        record = spec.run()
        # No faults -> the recovery machinery observes but never intervenes.
        assert record.dropped_packets == baseline.dropped_packets
        assert record.update_duration == baseline.update_duration
        assert record.recovery["reconverged"]
        assert record.recovery["retries"] == 0
        assert record.recovery["rules_reinstalled"] == 0


# ---------------------------------------------------------------------------
# Headline: crash recovery on the migration workload
# ---------------------------------------------------------------------------

class TestHeadlineRecovery:
    @pytest.mark.parametrize("technique", ["general", "barrier", "no-wait"])
    def test_recovery_reinstalls_rules_and_reduces_loss(self, technique):
        unrecovered = _crashed_migration(technique, None)
        recovered = _crashed_migration(technique, RecoveryPolicy())
        assert recovered.recovery["crashes_seen"] >= 1
        assert recovered.recovery["restores_seen"] >= 1
        assert recovered.recovery["rules_reinstalled"] > 0
        assert recovered.recovery["reconverged"]
        assert (recovered.recovery["resyncs_completed"]
                == recovered.recovery["resyncs_started"] >= 1)
        assert recovered.dropped_packets < unrecovered.dropped_packets

    def test_recovered_run_is_deterministic(self):
        first = _crashed_migration("general", RecoveryPolicy())
        second = _crashed_migration("general", RecoveryPolicy())
        assert first.digest() == second.digest()
        assert first.recovery == second.recovery

    def test_recovery_report_serializes_and_round_trips(self):
        from repro.session import RunRecord

        record = _crashed_migration("general", RecoveryPolicy())
        payload = record.as_dict()
        assert payload["recovery"] == record.recovery
        rebuilt = RunRecord.from_dict(json.loads(json.dumps(payload)))
        assert rebuilt == record
        assert record.summary()["recovery"] == record.recovery
        assert "time_to_reconvergence" in record.recovery

    def test_permanent_crash_reports_unrecovered(self):
        record = _crashed_migration(
            "general", RecoveryPolicy(),
            plan="switch-crash(at=0.3,restart_after=0.0)@S2", grace=0.4)
        assert record.recovery["crashes_seen"] == 1
        assert record.recovery["restores_seen"] == 0
        assert not record.recovery["reconverged"]


# ---------------------------------------------------------------------------
# Retransmission and stranded-ack hygiene
# ---------------------------------------------------------------------------

class TestRetransmission:
    def test_ack_lost_to_crash_is_retransmitted_after_restore(self):
        sim, network, controller, manager = _recovering_controller(
            RecoveryPolicy(ack_timeout=0.05, max_attempts=8))
        ack = controller.send_flowmod("S1", _flowmod())
        # Crash with the FlowMod in flight: the rule, and any reply, die
        # with the agent.
        network.switch("S1").crash()
        sim.schedule_callback(0.12, network.switch("S1").restore)
        sim.run(until=2.0)
        assert ack.acked
        assert ack.attempts > 1
        assert manager.retries >= 1
        assert controller.pending_acks() == 0
        assert network.switch("S1").dataplane.table.occupancy() >= 1

    def test_exhausted_retries_fail_the_ack(self):
        sim, network, controller, manager = _recovering_controller(
            RecoveryPolicy(ack_timeout=0.05, max_attempts=3))
        ack = controller.send_flowmod("S1", _flowmod())
        network.switch("S1").crash()  # never restored
        sim.run(until=2.0)
        assert not ack.acked and ack.failed
        assert ack.attempts == 3
        assert manager.acks_failed == 1
        # Stranded-ack hygiene: a failed ack is no longer *pending*.
        assert controller.pending_acks() == 0
        assert controller.pending_acks("S1") == 0
        assert [a.xid for a in controller.failed_acks()] == [ack.xid]
        assert controller.ack_failed("S1", ack.xid)

    def test_duplicate_retransmit_applies_once(self):
        sim, network, controller, _ = _recovering_controller(
            RecoveryPolicy(retransmit=False))
        flowmod = _flowmod()
        ack = controller.send_flowmod("S1", flowmod)
        controller.retransmit(ack)  # same xid, switch alive: a duplicate
        sim.run(until=1.0)
        switch = network.switch("S1")
        assert switch.controlplane.duplicate_flowmods == 1
        assert switch.dataplane.table.occupancy() == 1
        assert ack.acked  # the retransmit's barrier resolved it

    def test_executor_summary_reports_failed_operations(self):
        sim, network, controller, manager = _recovering_controller(
            RecoveryPolicy(ack_timeout=0.05, max_attempts=2, resync=False))
        plan = UpdatePlan()
        plan.add("S1", _flowmod(1))
        plan.add("S2", _flowmod(2))
        executor = PlanExecutor(sim, controller, plan)
        network.switch("S2").crash()  # S2's install can never be acked
        executor.start()
        sim.run(until=3.0)
        summary = executor.summary()
        assert summary["operations"] == 2
        assert summary["acked"] == 1
        assert summary["failed"] == 1
        assert summary["in_flight"] == 0
        assert not summary["completed"]
        assert [op.switch for op in executor.failed_operations()] == ["S2"]


# ---------------------------------------------------------------------------
# Shadow store and resync
# ---------------------------------------------------------------------------

class TestShadowResync:
    def test_shadow_tracks_and_diffs_missing_rules(self):
        sim, network, controller, manager = _recovering_controller(RecoveryPolicy())
        for index in range(3):
            controller.send_flowmod("S1", _flowmod(index + 1))
        controller.send_barrier("S1")
        sim.run(until=0.5)
        switch = network.switch("S1")
        assert manager.shadow.table("S1").occupancy() == 3
        assert manager.shadow.missing_rules(switch) == []
        switch.dataplane.wipe()
        assert len(manager.shadow.missing_rules(switch)) == 3

    def test_restore_triggers_full_resync(self):
        sim, network, controller, manager = _recovering_controller(
            RecoveryPolicy(ack_timeout=0.5))
        for index in range(3):
            controller.send_flowmod("S2", _flowmod(index + 1))
        controller.send_barrier("S2")
        sim.run(until=0.5)
        network.switch("S2").crash()
        assert network.switch("S2").dataplane.table.occupancy() == 0
        network.switch("S2").restore()
        sim.run(until=2.0)
        assert manager.rules_reinstalled == 3
        assert manager.resyncs_completed == 1
        assert network.switch("S2").dataplane.table.occupancy() == 3
        assert manager.reconverged()
        assert manager.shadow.missing_rules(network.switch("S2")) == []

    def test_resync_with_nothing_shadowed_completes_immediately(self):
        sim, network, controller, manager = _recovering_controller(RecoveryPolicy())
        network.switch("S3").crash()
        network.switch("S3").restore()
        sim.run(until=0.5)
        assert manager.resyncs_completed == 1
        assert manager.rules_reinstalled == 0
        assert manager.reconverged()

    def test_resync_delay_defers_the_replay(self):
        sim, network, controller, manager = _recovering_controller(
            RecoveryPolicy(resync_delay=0.3))
        controller.send_flowmod("S1", _flowmod())
        controller.send_barrier("S1")
        sim.run(until=0.2)
        network.switch("S1").crash()
        network.switch("S1").restore()
        sim.run(until=sim.now + 0.1)
        assert manager.resyncs_started == 0  # still inside the delay
        sim.run(until=sim.now + 0.5)
        assert manager.resyncs_completed == 1

    def test_shadow_reinstall_uses_fresh_xids(self):
        store = ShadowStore()
        original = _flowmod()
        store.record("S1", original, now=0.0)
        entry = store.table("S1").entries[0]
        rebuilt = ShadowStore.reinstall_flowmod(entry)
        assert rebuilt.xid != original.xid
        assert rebuilt.match == original.match
        assert rebuilt.priority == original.priority


# ---------------------------------------------------------------------------
# Switch lifecycle edge cases
# ---------------------------------------------------------------------------

class TestSwitchLifecycleEdgeCases:
    def test_restore_without_crash_is_a_silent_no_op(self):
        sim, network, controller, manager = _recovering_controller(RecoveryPolicy())
        events = []
        network.switch("S1").on_lifecycle(lambda name, event: events.append(event))
        network.switch("S1").restore()
        sim.run(until=0.2)
        assert events == []
        assert manager.restores_seen == 0
        assert manager.resyncs_started == 0

    def test_double_crash_counts_twice_and_stays_unreconverged(self):
        sim, network, controller, manager = _recovering_controller(RecoveryPolicy())
        switch = network.switch("S1")
        switch.crash()
        switch.crash()
        assert switch.crash_epoch == 2
        assert manager.crashes_seen == 2
        switch.restore()
        sim.run(until=0.5)
        # One restore cannot answer two observed crashes.
        assert not manager.reconverged()
        assert not switch.crashed

    def test_crash_mid_resync_aborts_and_the_next_restore_retries(self):
        sim, network, controller, manager = _recovering_controller(
            # Delay the replay so the second crash lands inside the window.
            RecoveryPolicy(resync_delay=0.2))
        controller.send_flowmod("S1", _flowmod())
        controller.send_barrier("S1")
        sim.run(until=0.3)
        switch = network.switch("S1")
        switch.crash()
        switch.restore()          # resync scheduled for now + 0.2
        sim.run(until=sim.now + 0.05)
        switch.crash()            # kills the scheduled replay
        switch.restore()
        sim.run(until=2.0)
        assert manager.resyncs_completed >= 1
        assert switch.dataplane.table.occupancy() == 1
        assert manager.reconverged()

    def test_restart_after_zero_stays_dead(self):
        record = _crashed_migration(
            "general", RecoveryPolicy(),
            plan="switch-crash(at=0.3,restart_after=0.0)@S1", grace=0.4)
        assert record.recovery["restores_seen"] == 0
        assert not record.recovery["reconverged"]


# ---------------------------------------------------------------------------
# Timeline DSL: groups, rolling waves, selectors
# ---------------------------------------------------------------------------

class TestTimelineDsl:
    def _network(self, topology=None):
        sim = Simulator()
        return Network(sim, topology or triangle_topology(), seed=3)

    def test_group_string_and_dict_round_trip(self):
        text = ("group(switch-crash(restart_after=0.4)@S1,"
                "delay-spike(probability=0.1)@S2)@t=0.5")
        plan = FaultPlan.from_string(text)
        assert isinstance(plan.specs[0], GroupSpec)
        assert plan.specs[0].at == 0.5
        assert plan.to_string() == text
        assert FaultPlan.from_dict(plan.as_dict()) == plan

    def test_rolling_string_and_dict_round_trip(self):
        text = "rolling(switch-crash(restart_after=0.2)@pod:0,stagger=0.15,at=0.4)"
        plan = FaultPlan.from_string(text)
        entry = plan.specs[0]
        assert isinstance(entry, RollingSpec)
        assert entry.stagger == 0.15 and entry.at == 0.4
        assert plan.to_string() == text
        assert FaultPlan.from_dict(plan.as_dict()) == plan

    def test_group_expansion_offsets_at_capable_members(self):
        network = self._network()
        plan = FaultPlan.from_string(
            "group(switch-crash(at=0.1,restart_after=0.4)@S1,"
            "delay-spike(probability=0.1)@S2)@t=0.5")
        instances = plan.expanded(network)
        assert [(slot, name, target) for slot, name, _params, target in instances] == [
            ("0.0", "switch-crash", "S1"),
            ("0.1", "delay-spike", "S2"),
        ]
        # "at"-capable members fire at group time + their own offset; members
        # without an "at" parameter are armed untouched.
        assert instances[0][2]["at"] == pytest.approx(0.6)
        assert "at" not in instances[1][2]

    def test_rolling_expansion_staggers_per_target(self):
        network = self._network()
        plan = FaultPlan.from_string(
            "rolling(switch-crash(restart_after=0.2),stagger=0.25,at=0.1)")
        instances = plan.expanded(network)
        assert [target for _slot, _name, _params, target in instances] == [
            "S1", "S2", "S3"]
        assert [params["at"] for _slot, _name, params, _target in instances] == [
            pytest.approx(0.1), pytest.approx(0.35), pytest.approx(0.6)]
        assert {slot for slot, _name, _params, _target in instances} == {"0"}

    def test_plain_spec_slots_match_pre_dsl_labels(self):
        network = self._network()
        plan = FaultPlan.from_string(
            "ack-loss(probability=0.5)@S1+delay-spike(probability=0.1)@S2")
        assert [slot for slot, _n, _p, _t in plan.expanded(network)] == ["0", "1"]

    def test_pod_selector_resolves_on_fat_tree(self):
        network = self._network(fat_tree(k=4))
        names = resolve_targets(["pod:1"], network)
        assert names == ["A1-0", "A1-1", "E1-0", "E1-1"]
        assert resolve_targets(["prefix:C0"], network) == ["C0-0", "C0-1"]
        assert resolve_targets(["*"], network) == network.switch_names()
        # Duplicates collapse, first-mention order wins.
        assert resolve_targets(["E1-0", "pod:1"], network)[0] == "E1-0"

    def test_selector_errors_are_descriptive(self):
        network = self._network()
        with pytest.raises(ValueError, match="matches no switches"):
            resolve_targets(["pod:7"], network)
        with pytest.raises(ValueError, match="did you mean 'S1'"):
            resolve_targets(["S11"], network)

    def test_rolling_requires_an_at_capable_inner_fault(self):
        plan = FaultPlan.from_string("rolling(ack-loss(probability=0.5),stagger=0.1)")
        with pytest.raises(ValueError, match="needs a schedulable fault"):
            plan.validate()

    def test_group_rejects_empty_members_and_negative_times(self):
        with pytest.raises(ValueError):
            FaultPlan(specs=[GroupSpec(members=())]).validate()
        with pytest.raises(ValueError, match="negative"):
            FaultPlan(specs=[RollingSpec(
                spec=FaultSpec("switch-crash", {}, ()), stagger=-0.1)]).validate()


# ---------------------------------------------------------------------------
# Rolling scenarios
# ---------------------------------------------------------------------------

class TestRollingScenarios:
    def test_rolling_upgrade_recovers_and_beats_recovery_off(self):
        params = ScenarioParams(flow_count=4, seed=7)
        recovered = run_scenario("rolling-upgrade", "general", params)
        unrecovered = run_scenario(
            "rolling-upgrade", "general",
            ScenarioParams(flow_count=4, seed=7, recovery="off"))
        assert recovered.recovery["reconverged"]
        assert recovered.recovery["rules_reinstalled"] > 0
        assert unrecovered.recovery == {}
        assert recovered.dropped_packets < unrecovered.dropped_packets
        assert recovered.metrics["fault_plan"].startswith("rolling(")

    def test_correlated_tor_outage_runs_and_recovers(self):
        record = run_scenario(
            "correlated-tor-outage", "general",
            ScenarioParams(flow_count=4, seed=7))
        assert record.fault_events.get("switch-crash.crashes", 0) >= 1
        assert record.fault_events.get("link-flap.flaps", 0) >= 1
        assert record.recovery["reconverged"]


# ---------------------------------------------------------------------------
# Campaign recovery axis
# ---------------------------------------------------------------------------

class TestCampaignRecoveryAxis:
    def test_recovery_off_cell_ids_match_pre_recovery_hashes(self):
        # The absent axis keeps the pre-recovery hash; an explicit "off" is a
        # different run for scenarios that default recovery on, so it is
        # written into the config and hashes apart.
        bare = CampaignCell(scenario="path-migration", technique="general")
        assert "recovery" not in bare.config()
        assert bare.cell_id == "6af0fafc727abcc6"
        explicit = CampaignCell(scenario="path-migration", technique="general",
                                recovery="off")
        assert explicit.config()["recovery"] == "off"
        assert explicit.cell_id != bare.cell_id
        assert "recovery=" not in explicit.describe()
        armed = CampaignCell(scenario="path-migration", technique="general",
                             recovery="on")
        assert armed.config()["recovery"] == "on"
        assert armed.cell_id != bare.cell_id
        assert "recovery=on" in armed.describe()

    @pytest.mark.parametrize("scenario", ["rolling-upgrade", "correlated-tor-outage",
                                          "fault-sweep"])
    def test_an_absent_axis_is_not_an_explicit_none(self, scenario):
        # ``python -m repro.campaign run --scenarios rolling-upgrade`` used to
        # pass the spec's default "none" / "off" through verbatim and report
        # on an outage that never happened.
        def armed(cell):
            instance = get_scenario(scenario, cell.scenario_params())
            return instance.fault_plan().to_string(), instance.recovery_policy()

        (absent,) = CampaignSpec(scenarios=[scenario], techniques=["general"],
                                 seeds=[1]).cells()
        assert (absent.fault, absent.recovery) == (None, None)
        assert armed(absent) == armed(CampaignCell(scenario, "general"))
        own_faults, own_policy = armed(absent)
        assert own_faults == (getattr(SCENARIOS[scenario], "default_timeline", None)
                              or DEFAULT_FAULT_MIX)
        assert (own_policy is not None) == (scenario != "fault-sweep")

        control = CampaignCell(scenario, "general", fault="none", recovery="off")
        assert armed(control) == ("none", None)
        # Different runs, so never one store entry.
        assert control.config()["fault"] == "none"
        assert control.config()["recovery"] == "off"
        assert "fault" not in absent.config() and "recovery" not in absent.config()
        assert control.cell_id != absent.cell_id

    def test_recovery_axis_expands_the_grid(self):
        spec = CampaignSpec(scenarios=["path-migration"], techniques=["general"],
                            seeds=[1], recoveries=["off", "on"])
        cells = spec.cells()
        assert len(cells) == 2
        assert sorted(cell.recovery for cell in cells) == ["off", "on"]
        params = [cell.scenario_params().recovery for cell in cells]
        assert sorted(params) == ["off", "on"]

    def test_validate_rejects_bad_recovery_entries(self):
        for bad in ("sometimes", "on(ack_timeout=nan)", "on(resync=maybe)"):
            spec = CampaignSpec(scenarios=["path-migration"], recoveries=[bad])
            with pytest.raises(ValueError, match="bad recovery axis entry"):
                spec.validate()
        spec = CampaignSpec(scenarios=["path-migration"], recoveries=[])
        with pytest.raises(ValueError, match="'recoveries' is empty"):
            spec.validate()

    def test_report_groups_keep_recovered_cells_apart(self):
        from repro.campaign.report import _fault_label

        off = {"config": {"fault": "switch-crash(at=0.5)", "recovery": "off"}}
        on = {"config": {"fault": "switch-crash(at=0.5)", "recovery": "on"}}
        assert _fault_label(off) == "switch-crash(at=0.5)"
        assert _fault_label(on) == "switch-crash(at=0.5) +recovery=on"

    def test_report_labels_an_absent_axis_by_what_the_cell_armed(self):
        # A cell with no fault/recovery axis runs the scenario's own timeline
        # and policy; it used to be grouped as the fault-free control "none",
        # so the report rendered no Resilience section for a real outage.
        from repro.campaign.report import _fault_label, has_fault_axis

        record = run_cell(CampaignCell("rolling-upgrade", "barrier", seed=1,
                                       flow_count=2))
        assert record["faults"] == {"switch-crash.crashes": 4,
                                    "switch-crash.restarts": 4}
        timeline = SCENARIOS["rolling-upgrade"].default_timeline
        assert _fault_label(record) == f"{timeline} +recovery=on"
        assert has_fault_axis([record])
        # An axis the cell sets is still its label, verbatim.
        control = run_cell(CampaignCell("rolling-upgrade", "barrier", seed=1,
                                        flow_count=2, fault="none",
                                        recovery="off"))
        assert _fault_label(control) == "none"
        assert not has_fault_axis([control])
