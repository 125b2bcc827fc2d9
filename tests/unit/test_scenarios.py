"""Tests for the scenario registry, engine and concrete scenarios."""

import pytest

from repro.analysis.flowstats import flow_update_stats
from repro.net.monitor import DeliveryMonitor
from repro.scenarios import (
    SCENARIOS,
    ScenarioParams,
    available_scenarios,
    get_scenario,
    run_scenario,
)
from repro.experiments.common import (
    EndToEndParams,
    MigrationSpec,
    migration_session,
    run_path_migration,
)
from repro.net.network import Network
from repro.scenarios.generators import build_topology, leaf_spine
from repro.scenarios.migration import PathMigrationScenario, endpoint_hosts, migration_paths
from repro.sim import Simulator


class TestRegistry:
    def test_builtin_scenarios_registered(self):
        assert {"path-migration", "link-failure", "firewall-rollout",
                "ecmp-rebalance"} <= set(available_scenarios())

    def test_get_scenario_unknown(self):
        with pytest.raises(KeyError):
            get_scenario("does-not-exist")

    def test_get_scenario_passes_params(self):
        params = ScenarioParams(flow_count=3, seed=11)
        scenario = get_scenario("path-migration", params)
        assert scenario.params.flow_count == 3
        assert scenario.params.seed == 11

    def test_descriptions_present(self):
        for name, cls in SCENARIOS.items():
            assert cls.name == name
            assert cls.description


def _quick_params(**overrides):
    defaults = dict(flow_count=3, warmup=0.1, grace=0.2, max_update_duration=5.0)
    defaults.update(overrides)
    return ScenarioParams(**defaults)


class TestEngine:
    def test_path_migration_on_leaf_spine(self):
        result = run_scenario("path-migration", "general", _quick_params())
        assert result.completed
        assert result.dropped_packets == 0
        assert result.mean_update_time is not None
        assert len(result.stats) == 3
        payload = result.as_dict()
        assert payload["scenario"] == "path-migration"
        assert payload["technique"] == "general"

    def test_link_failure_truthful_acks_leave_drained_link_clean(self):
        result = run_scenario("link-failure", "general", _quick_params())
        assert result.completed
        assert result.metrics["residual_drained_deliveries"] == 0

    def test_firewall_rollout_truthful_acks_prevent_bypass(self):
        result = run_scenario("firewall-rollout", "general", _quick_params())
        assert result.completed
        assert result.metrics["http_bypassing_firewall"] == 0
        assert result.metrics["bulk_delivered"] > 0

    def test_ecmp_rebalance_spreads_flows(self):
        result = run_scenario("ecmp-rebalance", "general",
                              _quick_params(flow_count=4))
        assert result.completed
        assert result.metrics["rebalanced_flows"] > 0
        share = result.metrics["post_update_spine_share"]
        assert sum(1 for count in share.values() if count > 0) >= 2

    def test_seed_determinism(self):
        first = run_scenario("path-migration", "barrier", _quick_params(seed=5))
        second = run_scenario("path-migration", "barrier", _quick_params(seed=5))
        assert first.update_duration == second.update_duration
        assert first.dropped_packets == second.dropped_packets


class TestPathMigrationScenario:
    """Given paths (``MigrationSpec``) and searched ones run as one class."""

    @staticmethod
    def _markers(scenario):
        network = Network(Simulator(), scenario.build_topology())
        flows = scenario.flows(network)
        return set(scenario.new_path_switches(network, flows).values())

    def test_triangle_default_matches_paper(self):
        scenario = PathMigrationScenario(migration=MigrationSpec.triangle())
        assert scenario.given.old_path == ["H1", "S1", "S3", "H2"]
        assert self._markers(scenario) == {"S2"}
        # The search on the triangle finds the paper's paths too.
        searched = PathMigrationScenario(ScenarioParams(topology="triangle"))
        network = Network(Simulator(), searched.build_topology())
        assert ((searched.paths(network).old_path, searched.paths(network).new_path)
                == (scenario.given.old_path, scenario.given.new_path))

    def test_new_path_switch_inference(self):
        topo = leaf_spine(leaves=2, spines=2, hosts_per_leaf=1)
        scenario = PathMigrationScenario(migration=MigrationSpec(
            topology=topo,
            old_path=["H1", "L0", "SP0", "L1", "H2"],
            new_path=["H1", "L0", "SP1", "L1", "H2"],
        ))
        assert self._markers(scenario) == {"SP1"}

    def test_no_distinguishing_switch_rejected(self):
        topo = leaf_spine(leaves=2, spines=2, hosts_per_leaf=1)
        spec = MigrationSpec(
            topology=topo,
            old_path=["H1", "L0", "SP0", "L1", "H2"],
            new_path=["H1", "L0", "SP0", "L1", "H2"],
        )
        with pytest.raises(ValueError, match="visits no switch the old path avoids"):
            PathMigrationScenario(migration=spec)
        with pytest.raises(ValueError, match="visits no switch the old path avoids"):
            migration_session("general", spec=spec)

    def test_run_path_migration_on_generated_topology(self):
        topo = leaf_spine(leaves=2, spines=2, hosts_per_leaf=1,
                          hardware_fraction=0.5, seed=1)
        spec = MigrationSpec(
            topology=topo,
            old_path=["H1", "L0", "SP0", "L1", "H2"],
            new_path=["H1", "L0", "SP1", "L1", "H2"],
        )
        params = EndToEndParams(flow_count=3, warmup=0.1, grace=0.2)
        result = run_path_migration("general", params, spec=spec)
        assert result.update_duration is not None
        assert all(entry.first_new_path is not None for entry in result.stats)

    @pytest.mark.parametrize("name, read", [
        ("link-failure", lambda scenario, network: scenario.drained_edge(network)),
        ("ecmp-rebalance", lambda scenario, network: scenario.spines(network)),
    ])
    def test_subclass_state_follows_the_paths_given_or_searched(self, name, read):
        searched = get_scenario(name, _quick_params())
        network = Network(Simulator(), searched.build_topology())
        given = type(searched)(_quick_params(), migration=searched.paths(network))
        assert read(given, network) == read(searched, network)


def _endpoint_network(family, scale):
    network = Network(Simulator(), build_topology(family, scale=scale))
    return (network, *endpoint_hosts(network))


class TestMigrationPaths:
    """The ``(old_path, new_path)`` pair of every topology family a registered
    scenario builds, as the full 64-path search returned it."""

    @pytest.mark.parametrize("family, scale, old_path, new_path", [
        ("fat-tree", 1, ["H1", "E0-0", "A0-0", "C0-0", "A3-0", "E3-1", "H8"],
         ["H1", "E0-0", "A0-1", "C1-0", "A3-1", "E3-1", "H8"]),
        ("fat-tree", 2, ["H1", "E0-0", "A0-0", "C0-0", "A5-0", "E5-2", "H18"],
         ["H1", "E0-0", "A0-1", "C1-0", "A5-1", "E5-2", "H18"]),
        ("leaf-spine", 1, ["H1", "L0", "SP0", "L3", "H4"],
         ["H1", "L0", "SP1", "L3", "H4"]),
        ("leaf-spine", 2, ["H1", "L0", "SP0", "L5", "H6"],
         ["H1", "L0", "SP1", "L5", "H6"]),
        ("ring", 1, ["H1", "R0", "R1", "R2", "H2"], ["H1", "R0", "R3", "R2", "H2"]),
        ("ring", 2, ["H1", "R0", "R1", "R2", "R3", "H2"],
         ["H1", "R0", "R5", "R4", "R3", "H2"]),
        ("triangle", 1, ["H1", "S1", "S3", "H2"], ["H1", "S1", "S2", "S3", "H2"]),
    ])
    def test_the_pair_is_pinned(self, family, scale, old_path, new_path):
        assert migration_paths(*_endpoint_network(family, scale)) == (old_path, new_path)

    @pytest.mark.parametrize("scale", [1, 2])
    def test_a_chain_offers_no_alternative(self, scale):
        with pytest.raises(ValueError) as raised:
            migration_paths(*_endpoint_network("linear", scale))
        assert str(raised.value) == (f"topology 'linear-{scale + 2}' offers no "
                                     "alternative path between H1 and H2")


class TestPerFlowStatsMapping:
    def _monitor(self):
        monitor = DeliveryMonitor()
        monitor.record_sent("a")
        monitor.record_sent("b")
        monitor.record_delivery("a", sent_at=0.0, received_at=0.1, sequence=0,
                                path=("H1", "S1", "SPX", "H2"))
        monitor.record_delivery("b", sent_at=0.0, received_at=0.2, sequence=0,
                                path=("H1", "S1", "SPY", "H2"))
        return monitor

    def test_mapping_selects_marker_per_flow(self):
        stats = flow_update_stats(
            self._monitor(),
            new_path_switch={"a": "SPX", "b": "SPY"},
            update_start=0.0,
            expected_interval=0.004,
        )
        by_id = {entry.flow_id: entry for entry in stats}
        assert by_id["a"].first_new_path == pytest.approx(0.1)
        assert by_id["b"].first_new_path == pytest.approx(0.2)

    def test_unmapped_flows_are_skipped(self):
        stats = flow_update_stats(
            self._monitor(),
            new_path_switch={"a": "SPX"},
            update_start=0.0,
            expected_interval=0.004,
        )
        assert [entry.flow_id for entry in stats] == ["a"]

    def test_string_form_unchanged(self):
        stats = flow_update_stats(
            self._monitor(),
            new_path_switch="SPX",
            update_start=0.0,
            expected_interval=0.004,
        )
        assert len(stats) == 2
