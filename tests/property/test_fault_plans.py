"""Property-based tests (hypothesis) for the fault subsystem: plan codecs
round-trip (dict form, string form, and inside ``SessionSpec`` encoding) and
fault schedules are deterministic functions of the seed."""

from hypothesis import given, settings, strategies as st

from repro.faults import (
    FaultPlan,
    FaultSpec,
    arm_fault_plan,
    available_faults,
    get_fault,
)
from repro.net.network import Network
from repro.net.topology import triangle_topology
from repro.openflow import BarrierRequest, FlowMod, Match, OutputAction
from repro.sim import Simulator

# -- strategies -----------------------------------------------------------------

probabilities = st.floats(min_value=0.0, max_value=1.0,
                          allow_nan=False, allow_infinity=False)
switch_names = st.sampled_from(["S1", "S2", "S3"])


@st.composite
def fault_specs(draw):
    """Random valid specs over the registered fault models."""
    name = draw(st.sampled_from(available_faults()))
    defaults = get_fault(name).param_defaults
    params = {}
    for key, default in defaults.items():
        if not draw(st.booleans()):
            continue
        if isinstance(default, bool):
            params[key] = draw(st.booleans())
        elif key in ("probability",):
            params[key] = draw(probabilities)
        elif isinstance(default, int):
            params[key] = draw(st.integers(min_value=2, max_value=16))
        else:
            # ``link-flap`` rejects ``duration=0``; every other float may be 0.
            params[key] = draw(st.floats(min_value=0.0, max_value=4.0,
                                         exclude_min=key == "duration",
                                         allow_nan=False))
    targets = tuple(sorted(draw(st.sets(switch_names, max_size=3))))
    return FaultSpec(name, params, targets)


@st.composite
def fault_plans(draw):
    return FaultPlan(specs=draw(st.lists(fault_specs(), min_size=1, max_size=4)))


# -- codec round trips -----------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(fault_plans())
def test_plan_dict_round_trip(plan):
    assert FaultPlan.from_dict(plan.as_dict()) == plan


@settings(max_examples=60, deadline=None)
@given(fault_plans())
def test_plan_round_trips_inside_session_spec_encoding(plan):
    """The ``faults`` entry of ``SessionSpec.config()`` rebuilds the plan."""
    import json

    from repro.experiments.common import EndToEndParams, migration_session

    spec = migration_session("barrier", EndToEndParams(flow_count=2))
    spec.faults = plan
    encoded = spec.config()["faults"]
    json.dumps(encoded)  # must be JSON-able as-is
    assert FaultPlan.from_dict(encoded) == plan


@settings(max_examples=60, deadline=None)
@given(st.lists(fault_specs(), min_size=1, max_size=3))
def test_plan_string_round_trip_of_structure(specs):
    """``to_string``/``from_string`` preserve names, targets and param keys.

    Parameter *values* may change representation (``1.0`` parses back as the
    integer ``1``), so the round trip is checked structurally and must be a
    fixed point: encode(parse(encode(p))) == encode(p).
    """
    plan = FaultPlan(specs)
    text = plan.to_string()
    reparsed = FaultPlan.from_string(text)
    assert [s.fault for s in reparsed.specs] == [s.fault for s in plan.specs]
    assert [s.targets for s in reparsed.specs] == [s.targets for s in plan.specs]
    assert [sorted(s.params) for s in reparsed.specs] == [
        sorted(s.params) for s in plan.specs]
    assert reparsed.to_string() == text


# -- schedule determinism ---------------------------------------------------------

def _drive_faulted_network(plan, seed):
    """Arm ``plan`` on a triangle network, drive a fixed message sequence,
    and capture every observable consequence: counters, data-plane apply
    logs, and the messages the controller side saw."""
    sim = Simulator()
    network = Network(sim, triangle_topology(), seed=3)
    observed = []
    for name in network.switch_names():
        endpoint = network.controller_endpoint(name)
        endpoint.on_message(
            lambda message, name=name: observed.append(
                (round(sim.now, 9), name, type(message).__name__)))
    armed = arm_fault_plan(sim, network, plan, seed=seed)
    network.start()
    for index, name in enumerate(network.switch_names()):
        endpoint = network.controller_endpoint(name)
        for flow_index in range(3):
            endpoint.send(FlowMod(
                Match(ip_src=f"10.0.0.{flow_index + 1}"),
                [OutputAction(1)], priority=100,
                xid=1000 + index * 10 + flow_index))
        endpoint.send(BarrierRequest(xid=2000 + index))
    sim.run(until=5.0)
    apply_logs = {
        name: list(network.switch(name).dataplane.apply_log)
        for name in network.switch_names()
    }
    return armed.counters(), apply_logs, observed


@settings(max_examples=15, deadline=None)
@given(fault_plans(), st.integers(min_value=0, max_value=1000))
def test_fault_schedules_deterministic_under_fixed_seed(plan, seed):
    """Same plan + same seed => identical counters, apply order, messages."""
    first = _drive_faulted_network(plan, seed)
    second = _drive_faulted_network(plan, seed)
    assert first == second
