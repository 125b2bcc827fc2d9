"""The maintained gauge counts against the scans they replaced.

``Controller.pending_acks`` used to walk every ``RuleAck`` ever issued and
``RumLayer.unconfirmed_count`` every tracker; both now read a count kept by
the transitions themselves.  Random interleavings of every transition —
sends (fresh and same-xid), barriers and their replies, direct RUM
confirmations, retransmissions, give-ups, crashes, restores and the shadow
resyncs they trigger — must leave the counts equal to the scanning
definition after every step.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.controller import AckMode, Controller
from repro.core import RumLayer, config_for_technique
from repro.net import Network, triangle_topology
from repro.openflow import FlowMod, Match, OutputAction
from repro.openflow.messages import ErrorMessage
from repro.recovery import RecoveryManager, RecoveryPolicy
from repro.sim import Simulator

_SWITCHES = ("S1", "S2", "S3")


def _flowmod(index):
    return FlowMod(Match(ip_src=f"10.0.{index // 250}.{index % 250 + 1}"),
                   [OutputAction(1)], priority=100)


def _scanned_pending(controller, switch_name=None):
    """``pending_acks`` as the parent commit computed it."""
    return sum(
        1
        for (switch, _xid), ack in controller._rule_acks.items()
        if not ack.acked and not ack.failed
        and (switch_name is None or switch == switch_name)
    )


def _assert_counts_match_scan(controller):
    assert controller.pending_acks() == _scanned_pending(controller)
    for name in _SWITCHES + ("ghost",):
        assert controller.pending_acks(name) == _scanned_pending(controller, name)


_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("send"), st.sampled_from(_SWITCHES)),
        st.tuples(st.just("resend"), st.integers(0, 63)),
        st.tuples(st.just("barrier"), st.sampled_from(_SWITCHES)),
        st.tuples(st.just("confirm"), st.integers(0, 63)),
        st.tuples(st.just("retransmit"), st.integers(0, 63)),
        st.tuples(st.just("fail"), st.integers(0, 63)),
        st.tuples(st.just("crash"), st.sampled_from(_SWITCHES)),
        st.tuples(st.just("restore"), st.sampled_from(_SWITCHES)),
        st.tuples(st.just("advance"), st.sampled_from([0.001, 0.02, 0.06, 0.3])),
    ),
    min_size=1, max_size=40,
)


@settings(max_examples=150, deadline=None)
@given(steps=_STEPS,
       ack_mode=st.sampled_from([AckMode.BARRIER, AckMode.RUM_CONFIRMATION,
                                 AckMode.NONE]),
       recover=st.booleans())
def test_pending_acks_equal_the_scanning_definition(steps, ack_mode, recover):
    sim = Simulator()
    network = Network(sim, triangle_topology(), seed=5)
    controller = Controller(sim, ack_mode=ack_mode)
    for name in network.switch_names():
        controller.connect_switch(name, network.controller_endpoint(name))
    if recover:
        RecoveryManager(sim, controller, network, policy=RecoveryPolicy(
            ack_timeout=0.05, max_attempts=3)).attach()
    network.start()
    acks = []  # every RuleAck handed out, displaced ones included
    for index, (step, arg) in enumerate(steps):
        if step == "send":
            acks.append(controller.send_flowmod(arg, _flowmod(index)))
        elif step == "advance":
            sim.run(until=sim.now + arg)
        elif step == "barrier":
            controller.send_barrier(arg)
        elif step == "crash":
            network.switch(arg).crash()
        elif step == "restore":
            network.switch(arg).restore()  # recovery resyncs from the shadow
        elif acks:
            ack = acks[arg % len(acks)]
            if step == "resend":  # same xid again: displaces the old record
                acks.append(controller.send_flowmod(ack.switch, ack.flowmod))
            elif step == "confirm":  # what RUM sends upstream for this xid
                controller._on_message(
                    ack.switch, ErrorMessage.rule_confirmation(ack.xid))
            elif step == "retransmit":
                controller.retransmit(ack)
            else:
                controller.fail_ack(ack)
        _assert_counts_match_scan(controller)
    sim.run(until=sim.now + 2.0)  # let every timer, reply and resync land
    _assert_counts_match_scan(controller)


@settings(max_examples=60, deadline=None)
@given(steps=st.lists(
    st.one_of(
        st.tuples(st.just("send"), st.sampled_from(_SWITCHES)),
        st.tuples(st.just("retransmit"), st.integers(0, 63)),
        st.tuples(st.just("confirm"), st.integers(0, 63)),
        st.tuples(st.just("confirm-up-to"), st.integers(0, 63)),
        st.tuples(st.just("advance"), st.sampled_from([0.001, 0.02, 0.4])),
    ), min_size=1, max_size=30),
    technique=st.sampled_from(["barrier", "timeout", "general", "adaptive"]))
def test_rum_unconfirmed_total_equals_the_tracker_sum(steps, technique):
    sim = Simulator()
    network = Network(sim, triangle_topology(), seed=4)
    rum = RumLayer(sim, config_for_technique(technique))
    rum.attach_network(network)
    controller = Controller(sim, ack_mode=AckMode.RUM_CONFIRMATION)
    for name in network.switch_names():
        controller.connect_switch(name, rum.controller_endpoint(name))
    rum.prepare()
    network.start()
    rum.start()
    acks = []
    for index, (step, arg) in enumerate(steps):
        if step == "send":
            acks.append(controller.send_flowmod(arg, _flowmod(index)))
        elif step == "advance":
            sim.run(until=sim.now + arg)
        elif acks:
            ack = acks[arg % len(acks)]
            if step == "retransmit":  # may reach RUM while still pending
                controller.retransmit(ack)
            elif step == "confirm":
                rum.confirm_rule(ack.switch, ack.xid, by="test")
            else:
                record = rum.pending(ack.switch).get(ack.xid)
                if record is not None:
                    rum.confirm_up_to(ack.switch, record.sequence, by="test")
        assert rum.unconfirmed_count() == sum(
            len(rum.pending(name)) for name in _SWITCHES)
    sim.run(until=sim.now + 2.0)
    assert rum.unconfirmed_count() == sum(
        len(rum.pending(name)) for name in _SWITCHES)
