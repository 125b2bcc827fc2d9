"""Unit tests for the network layer (topology, links, hosts, traffic, monitor)
and the controller framework (acks, update plans, consistent updates)."""

import networkx as nx
import pytest

from repro.controller import (
    AckMode,
    ConsistentPathMigration,
    Controller,
    PlanExecutor,
    TwoPhaseVersionedUpdate,
    UpdatePlan,
    install_path_rules,
    path_flowmods,
)
from repro.controller.routing import NoPathError, shortest_path
from repro.core import TopologyView
from repro.net import (
    DeliveryMonitor,
    Link,
    Network,
    Topology,
    TrafficGenerator,
    flows_between,
    linear_topology,
    triangle_topology,
)
from repro.openflow import FlowMod, Match, OutputAction
from repro.openflow.actions import DropAction
from repro.sim import Simulator


# -- topology ----------------------------------------------------------------

def test_triangle_topology_structure():
    topo = triangle_topology()
    assert set(topo.switches) == {"S1", "S2", "S3"}
    assert set(topo.hosts) == {"H1", "H2"}
    assert topo.switches["S2"].kind == "hardware"
    graph = nx.Graph(topo.switch_graph())
    assert graph.number_of_nodes() == graph.number_of_edges() == 3


def test_linear_topology_chain():
    topo = linear_topology(4)
    assert len(topo.switches) == 4
    assert topo.neighbors_of("S2") == ["S1", "S3"]


def test_topology_rejects_duplicate_and_unknown_nodes():
    topo = Topology()
    topo.add_switch("S1")
    with pytest.raises(ValueError):
        topo.add_switch("S1")
    with pytest.raises(ValueError):
        topo.add_link("S1", "S9")


def test_topology_host_must_have_one_link():
    topo = Topology()
    topo.add_switch("S1").add_switch("S2").add_host("H1", "10.0.0.1", "00:00:00:00:00:01")
    topo.add_link("S1", "S2")
    with pytest.raises(ValueError):
        topo.validate()


# -- network construction ----------------------------------------------------------

def test_network_ports_are_symmetric_and_queryable():
    sim = Simulator()
    network = Network(sim, triangle_topology())
    port = network.port_between("S1", "S2")
    assert network.node_for_port("S1", port) == "S2"
    back = network.port_between("S2", "S1")
    assert network.node_for_port("S2", back) == "S1"
    with pytest.raises(KeyError):
        network.port_between("S1", "H2")


def _path_ports(network, path):
    """For a node path, the output port each switch uses towards the next hop."""
    return [(node, network.port_between(node, path[index + 1]))
            for index, node in enumerate(path[:-1]) if node in network.switches]


def test_network_path_ports():
    sim = Simulator()
    network = Network(sim, triangle_topology())
    pairs = _path_ports(network, ["H1", "S1", "S2", "S3", "H2"])
    assert [switch for switch, _port in pairs] == ["S1", "S2", "S3"]


def test_network_neighbors_exclude_hosts():
    sim = Simulator()
    network = Network(sim, triangle_topology())
    assert set(TopologyView(network).switch_neighbors("S1")) == {"S2", "S3"}


# -- links: checked once, at construction ------------------------------------------------
# A hop pushes its flush entry without ``schedule_at``'s ``time >= now`` check,
# so whatever could make a due time precede the present is rejected here.

class _Sink:
    ingress_latency = 0.0

    def __init__(self, name):
        self.name = name

    def receive_packet(self, packet, in_port, arrived_at):
        pass


def test_a_link_rejects_a_nan_latency():
    # It once failed only at the first packet, inside ``schedule_at``.
    with pytest.raises(ValueError, match="latency"):
        Link(Simulator(), _Sink("a"), 1, _Sink("b"), 1, latency=float("nan"))


@pytest.mark.parametrize("bandwidth_bps", [-1e9, 0.0, float("nan")])
def test_a_link_rejects_a_non_positive_or_nan_bandwidth(bandwidth_bps):
    # -1e9 once ran, on a serialisation clock that ran backwards.
    with pytest.raises(ValueError, match="bandwidth_bps"):
        Link(Simulator(), _Sink("a"), 1, _Sink("b"), 1, bandwidth_bps=bandwidth_bps)


def test_a_flow_with_a_nan_rate_does_not_start():
    # The source pushes each next emission ``interval`` ahead, unchecked.
    flows = flows_between(_Sink("H1"), _Sink("H2"), 1, rate_pps=float("nan"))
    with pytest.raises(ValueError, match="non-positive rate"):
        TrafficGenerator(Simulator(), flows).start()


# -- traffic and delivery ---------------------------------------------------------------

def test_traffic_flows_delivered_over_preinstalled_path():
    sim = Simulator()
    network = Network(sim, triangle_topology(), seed=2)
    network.start()
    flows = flows_between(network.host("H1"), network.host("H2"), 5, rate_pps=200.0)
    for flow in flows:
        install_path_rules(network, path_flowmods(network, flow, ["H1", "S1", "S3", "H2"]))
    generator = TrafficGenerator(sim, flows)
    generator.start()
    generator.stop_all(0.5)
    sim.run(until=0.6)
    monitor = network.monitor
    for flow in flows:
        assert monitor.received_count(flow.flow_id) > 50
        assert monitor.dropped_count(flow.flow_id) <= 1
        path = monitor.deliveries(flow.flow_id)[0].path
        assert "S1" in path and "S3" in path and "S2" not in path


def test_traffic_without_rules_is_dropped_and_counted():
    sim = Simulator()
    network = Network(sim, triangle_topology(), seed=2)
    network.start()
    flows = flows_between(network.host("H1"), network.host("H2"), 2, rate_pps=100.0)
    generator = TrafficGenerator(sim, flows)
    generator.start()
    generator.stop_all(0.3)
    sim.run(until=0.4)
    assert network.monitor.total_dropped() == network.monitor.total_sent()
    assert network.monitor.total_sent() > 0


def test_monitor_gap_detection():
    monitor = DeliveryMonitor()
    times = [0.0, 0.01, 0.02, 0.30, 0.31]
    for index, time in enumerate(times):
        monitor.record_sent("f")
        monitor.record_delivery("f", time, time, index, ("H1", "S1", "H2"))
    assert monitor.largest_gap("f", expected_interval=0.01) == pytest.approx(0.27, abs=1e-9)


def test_monitor_path_queries():
    monitor = DeliveryMonitor()
    monitor.record_sent("f")
    monitor.record_delivery("f", 0.0, 0.1, 0, ("H1", "S1", "S3", "H2"))
    monitor.record_delivery("f", 0.2, 0.3, 1, ("H1", "S1", "S2", "S3", "H2"))
    assert monitor.first_arrival_via("f", "S2") == 0.3
    assert monitor.last_arrival_via("f", "S2") == 0.3
    assert len(monitor.arrivals_not_via("f", "S2")) == 1


def test_monitor_queries_do_not_insert_flows():
    # A query once inserted the flow it asked about, so a run that asked
    # mid-way (traced runs once sampled total_dropped() every 10 ms of sim
    # time) and one that did not ended with different monitors.
    monitor = DeliveryMonitor()
    monitor.record_sent("f1")
    assert monitor.delivered_flows() == []
    assert monitor.total_dropped() == 1
    assert monitor.delivered_flows() == []
    assert monitor.dropped_count("ghost") == 0
    assert monitor.deliveries("ghost") == [] and monitor.largest_gap("ghost", 0.01) == 0.0
    assert monitor.flows() == ["f1"]
    assert monitor.summary() == {"f1": {"sent": 1, "received": 0, "dropped": 1}}
    assert monitor.delivered_flows() == []


def test_flows_between_have_unique_addresses():
    sim = Simulator()
    network = Network(sim, triangle_topology())
    flows = flows_between(network.host("H1"), network.host("H2"), 50)
    sources = {flow.ip_src for flow in flows}
    destinations = {flow.ip_dst for flow in flows}
    assert len(sources) == 50 and len(destinations) == 50


# -- controller ---------------------------------------------------------------------------

def _connected_controller(ack_mode=AckMode.BARRIER):
    sim = Simulator()
    network = Network(sim, triangle_topology(), seed=5)
    controller = Controller(sim, ack_mode=ack_mode)
    for name in network.switch_names():
        controller.connect_switch(name, network.controller_endpoint(name))
    network.start()
    return sim, network, controller


def test_controller_barrier_event_completes():
    sim, network, controller = _connected_controller()
    event = controller.send_barrier("S1")
    sim.run(until=0.5)
    assert event.triggered


def test_controller_barrier_mode_ack_resolution():
    sim, network, controller = _connected_controller(AckMode.BARRIER)
    flowmod = FlowMod(Match(ip_src="10.0.0.1"), [OutputAction(1)])
    ack = controller.send_flowmod("S1", flowmod)
    controller.send_barrier("S1")
    sim.run(until=0.5)
    assert ack.acked
    assert controller.ack_time("S1", flowmod.xid) is not None


def test_controller_none_mode_acks_immediately():
    sim, network, controller = _connected_controller(AckMode.NONE)
    ack = controller.send_flowmod("S1", FlowMod(Match(ip_src="10.0.0.1"), [OutputAction(1)]))
    assert ack.acked
    assert controller.pending_acks() == 0


def test_controller_duplicate_switch_rejected():
    sim, network, controller = _connected_controller()
    with pytest.raises(ValueError):
        controller.connect_switch("S1", network.controller_endpoint("S2"))


# -- update plans ----------------------------------------------------------------------------

def test_update_plan_validates_cycles():
    plan = UpdatePlan()
    op_a = plan.add("S1", FlowMod(Match(), [OutputAction(1)]))
    op_b = plan.add("S1", FlowMod(Match(), [OutputAction(2)]), after=[op_a])
    op_a.depends_on.append(op_b.op_id)
    with pytest.raises(ValueError):
        plan.validate()


def test_update_plan_unknown_dependency_rejected():
    plan = UpdatePlan()
    ghost = UpdatePlan().add("S1", FlowMod(Match(), [OutputAction(1)]))
    with pytest.raises(ValueError):
        plan.add("S1", FlowMod(Match(), [OutputAction(2)]), after=[ghost])


def test_a_plan_numbers_its_own_operations():
    # Ids are positions in their own plan, so another plan's operation with
    # a taken id is still not a dependency.
    plan, other = UpdatePlan(), UpdatePlan()
    first = plan.add("S1", FlowMod(Match(), [OutputAction(1)]))
    twin = other.add("S1", FlowMod(Match(), [OutputAction(1)]))
    second = plan.add("S1", FlowMod(Match(), [OutputAction(2)]), after=[first])
    assert (first.op_id, twin.op_id, second.op_id) == (1, 1, 2)
    with pytest.raises(ValueError):
        plan.add("S1", FlowMod(Match(), [OutputAction(3)]), after=[twin])
    second.depends_on.append(7)  # unknown: it could never be acked
    with pytest.raises(ValueError):
        plan.validate()


def test_executor_respects_dependencies_and_window():
    sim, network, controller = _connected_controller(AckMode.BARRIER)
    plan = UpdatePlan()
    first = plan.add("S1", FlowMod(Match(ip_src="10.0.0.1"), [OutputAction(1)]), label="f")
    second = plan.add("S3", FlowMod(Match(ip_src="10.0.0.1"), [OutputAction(1)]),
                      after=[first], label="f")
    executor = PlanExecutor(sim, controller, plan, max_unconfirmed=1, barrier_every=1)
    executor.start()
    sim.run(until=2.0)
    assert plan.completed()
    assert first.acked_at <= second.issued_at
    assert executor.duration is not None
    assert len(plan.operations) / executor.duration > 0


def test_executor_ignore_dependencies_issues_everything():
    sim, network, controller = _connected_controller(AckMode.NONE)
    plan = UpdatePlan()
    first = plan.add("S1", FlowMod(Match(ip_src="10.0.0.1"), [OutputAction(1)]))
    plan.add("S3", FlowMod(Match(ip_src="10.0.0.1"), [OutputAction(1)]), after=[first])
    executor = PlanExecutor(sim, controller, plan, max_unconfirmed=10,
                            ignore_dependencies=True)
    executor.start()
    sim.run(until=1.0)
    assert plan.completed()


def test_executor_empty_plan_completes_immediately():
    sim, network, controller = _connected_controller(AckMode.NONE)
    executor = PlanExecutor(sim, controller, UpdatePlan(), max_unconfirmed=5)
    event = executor.start()
    assert event.triggered


def test_a_no_wait_plan_of_1000_rules_does_not_recurse():
    # Every no-wait ack completes inside ``send_flowmod``: the executor's one
    # pump loop issues the next rule instead of recursing into it.
    from repro.experiments.common import RuleInstallParams, run_rule_install

    record = run_rule_install("no-wait", RuleInstallParams.quick(
        rule_count=1000, max_unconfirmed=1000))
    assert record.completed and record.acknowledged_rules == 1000


# -- consistent updates ---------------------------------------------------------------------

def test_path_migration_plan_shape():
    sim = Simulator()
    network = Network(sim, triangle_topology(), seed=5)
    flows = flows_between(network.host("H1"), network.host("H2"), 10)
    migration = ConsistentPathMigration(
        network, flows, ["H1", "S1", "S3", "H2"], ["H1", "S1", "S2", "S3", "H2"]
    )
    plan = migration.build_plan()
    assert len(plan) == 20  # one S2 install plus one S1 flip per flow
    for flow in flows:
        ops = [op for op in plan.operations.values() if op.label == flow.flow_id]
        roles = {op.role for op in ops}
        assert roles == {"new-path", "ingress-flip"}
        flip = next(op for op in ops if op.role == "ingress-flip")
        assert flip.depends_on


def test_path_migration_requires_common_ingress():
    sim = Simulator()
    network = Network(sim, triangle_topology(), seed=5)
    flows = flows_between(network.host("H1"), network.host("H2"), 1)
    migration = ConsistentPathMigration(
        network, flows, ["H2", "S3", "S1", "H1"], ["H1", "S1", "S2", "S3", "H2"]
    )
    with pytest.raises(ValueError):
        migration.build_plan()


def test_two_phase_versioned_update_plan():
    sim = Simulator()
    network = Network(sim, triangle_topology(), seed=5)
    flows = flows_between(network.host("H1"), network.host("H2"), 3)
    update = TwoPhaseVersionedUpdate(
        network, flows,
        new_paths={flow.flow_id: ["H1", "S1", "S2", "S3", "H2"] for flow in flows},
        garbage_collect=True,
    )
    plan = update.build_plan()
    for flow in flows:
        ops = [op for op in plan.operations.values() if op.label == flow.flow_id]
        roles = [op.role for op in ops]
        assert roles.count("new-path") == 2      # S2 and S3 versioned rules
        assert roles.count("ingress-flip") == 1
        assert roles.count("cleanup") == 2
        flip = next(op for op in ops if op.role == "ingress-flip")
        assert len(flip.depends_on) == 2


def test_shortest_path_avoids_nodes():
    graph = triangle_topology().full_graph()
    direct = shortest_path(graph, "H1", "H2")
    assert "S2" not in direct
    # Removing S3 disconnects H2 entirely in the triangle.
    with pytest.raises(NoPathError):
        shortest_path(graph, "H1", "H2", avoid=["S3"])


def install_drop_all(network, priority=1):
    """Pre-install a low-priority drop-all rule on every switch: the Section
    5.2 set-up starts from "a single, low priority drop-all-packets rule"."""
    for name in network.switch_names():
        flowmod = FlowMod(Match(), [DropAction()], priority=priority)
        network.switch(name).install_rule_directly(flowmod)


def test_install_drop_all_installs_on_every_switch():
    sim = Simulator()
    network = Network(sim, triangle_topology())
    install_drop_all(network)
    for name in network.switch_names():
        assert network.switch(name).rules_in_dataplane() == 1
