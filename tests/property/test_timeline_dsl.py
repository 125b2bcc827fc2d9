"""Property-based tests (hypothesis) for the fault-timeline DSL: group and
rolling entries round-trip exactly through the plan's one codec, its string,
expansion to per-target instances is a pure function of the plan, and armed
schedules stay deterministic under a fixed seed."""

from hypothesis import given, settings, strategies as st

from repro.faults import (
    FaultPlan,
    FaultSpec,
    GroupSpec,
    RollingSpec,
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

#: Fault models a rolling wave can schedule (they take an ``at`` parameter).
AT_CAPABLE = tuple(name for name in available_faults()
                   if "at" in get_fault(name).param_defaults)


def _params_for(draw, name):
    params = {}
    for key, default in get_fault(name).param_defaults.items():
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
    return params


@st.composite
def fault_specs(draw, names=None):
    name = draw(st.sampled_from(list(names) if names else available_faults()))
    targets = tuple(sorted(draw(st.sets(switch_names, max_size=3))))
    return FaultSpec(name, _params_for(draw, name), targets)


@st.composite
def group_specs(draw):
    members = tuple(draw(st.lists(fault_specs(), min_size=1, max_size=3)))
    at = draw(st.floats(min_value=0.0, max_value=2.0, allow_nan=False))
    return GroupSpec(members=members, at=at)


@st.composite
def rolling_specs(draw):
    return RollingSpec(
        spec=draw(fault_specs(names=AT_CAPABLE)),
        stagger=draw(st.floats(min_value=0.0, max_value=1.0, allow_nan=False)),
        at=draw(st.one_of(st.none(), st.floats(min_value=0.0, max_value=2.0,
                                               allow_nan=False))),
    )


@st.composite
def timeline_plans(draw):
    entries = draw(st.lists(
        st.one_of(fault_specs(), group_specs(), rolling_specs()),
        min_size=1, max_size=3))
    return FaultPlan(specs=list(entries))


# -- codec round trips -----------------------------------------------------------

@settings(max_examples=120, deadline=None)
@given(timeline_plans())
def test_timeline_string_fixed_point(plan):
    """``from_string(to_string(p)) == p`` for specs, groups and rolling waves.

    ``str(1.0)`` is ``"1.0"``, which parses back as the float ``1.0``, so
    the round trip is exact and the encoding a fixed point.
    """
    text = plan.to_string()
    reparsed = FaultPlan.from_string(text)
    assert reparsed == plan
    assert reparsed.to_string() == text


@settings(max_examples=40, deadline=None)
@given(timeline_plans())
def test_timeline_expansion_is_stable(plan):
    """Expansion is a deterministic pure function of (plan, network)."""
    sim = Simulator()
    network = Network(sim, triangle_topology(), seed=3)
    first = plan.expanded(network)
    second = plan.expanded(network)
    assert first == second
    for slot, name, params, target in first:
        assert target in ("S1", "S2", "S3")
        assert name in available_faults()
        assert isinstance(slot, str) and slot


# -- schedule determinism ---------------------------------------------------------

def _drive_faulted_network(plan, seed):
    """Arm ``plan`` on a triangle network, drive a fixed message sequence,
    and capture every observable consequence."""
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
    sim.run(until=6.0)
    apply_logs = {
        name: list(network.switch(name).dataplane.apply_log)
        for name in network.switch_names()
    }
    return armed.counters(), apply_logs, observed


@settings(max_examples=15, deadline=None)
@given(timeline_plans(), st.integers(min_value=0, max_value=1000))
def test_timeline_schedules_deterministic_under_fixed_seed(plan, seed):
    """Same timeline + same seed => identical counters, applies, messages."""
    first = _drive_faulted_network(plan, seed)
    second = _drive_faulted_network(plan, seed)
    assert first == second
