"""The parked data-plane sync loop against the polling loop it replaced.

An idle RATE_LIMITED sync loop used to wake every quarter apply slot to look
at an empty queue.  It now parks and is woken on the tick that poll would
have hit, so every apply and barrier-reply time must be the *same float* —
they enter the run digests.  The old generator body lives on here as the
oracle, on top of the generator agent that ``tests/oracles`` keeps.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from generator_agent import GeneratorControlPlane

from repro.openflow import BarrierRequest, FlowMod, Match, OutputAction
from repro.sim import Simulator
from repro.sim.rng import SeededRandom
from repro.switches import HardwareSwitch, correct_hardware_profile
from repro.switches.controlplane import ControlPlane
from repro.switches.dataplane import DataPlane


class _PollingControlPlane(GeneratorControlPlane):
    """The generator agent with the pre-parking sync loop, verbatim."""

    def _rate_limited_sync_loop(self):
        base_spacing = 1.0 / self.profile.dataplane_apply_rate
        applied = 0
        while True:
            if not self._pending_ops:
                yield base_spacing / 4
                continue
            if self.profile.reorders_across_barriers and len(self._pending_ops) > 1:
                index = self.rng.randint(0, len(self._pending_ops) - 1)
                operation = self._pending_ops[index]
                del self._pending_ops[index]
            else:
                operation = self._pending_ops.popleft()
            spacing = base_spacing * (
                1.0 + self.profile.dataplane_occupancy_slowdown * applied
            )
            earliest = operation.control_applied_at + self.profile.dataplane_extra_latency
            epoch = self.crash_epoch
            wait = max(spacing, earliest - self.sim.now)
            yield wait
            if self.crash_epoch != epoch:
                continue  # the popped operation died with the switch
            self._apply_operation(operation)
            applied += 1


def _profile(reorders: bool, jitter: bool, lag: bool = False):
    # CORRECT barriers wait for the data plane, so barrier_reply_log depends
    # on the apply times too.  With the calibrated 40 ms extra latency an
    # apply lands at ``control_applied_at + 40 ms`` whatever tick woke the
    # loop; without it the apply time is ``tick + spacing`` and a tick that
    # is one ulp off shows.
    return correct_hardware_profile().with_overrides(
        reorders_across_barriers=reorders,
        flowmod_jitter=0.05 if jitter else 0.0,
        **({} if lag else {"dataplane_extra_latency": 0.0}),
    )


def _tick(profile, count):
    """The ``count``-th poll time of a loop that starts polling at 0.0."""
    quantum = 1.0 / profile.dataplane_apply_rate / 4
    tick = 0.0
    for _ in range(count):
        tick += quantum
    return tick


def _arrival_times(profile, steps):
    """Absolute arrival times from ``(kind, a, b)`` steps.

    ``gap``: ``a`` seconds after the previous arrival (0 = same burst).
    ``tick``: so that the FlowMod *completes* (un-jittered, agent idle)
    ``b`` ulps off the ``a``-th tick of the grid the loop starts on.
    """
    processing = profile.flowmod_processing_time(0)
    times, now = [], 0.0
    for kind, a, b in steps:
        if kind == "gap":
            now += a
        else:
            target = _tick(profile, a) - processing
            for _ in range(abs(b)):
                target = math.nextafter(target, math.inf if b > 0 else -math.inf)
            now = max(now, target)
        times.append(now)
    return times


def _run(cls, profile, arrivals, barrier_every, crash_at, down_for, horizon):
    sim = Simulator()
    dataplane = DataPlane(sim, name="SW.data")
    plane = cls(sim, profile, send_to_controller=lambda message: None,
                apply_to_dataplane=dataplane.apply_flowmod,
                inject_packet=lambda packet, actions, in_port: None,
                rng=SeededRandom(11), name="SW")
    plane.start()
    xid = 1000
    for index, time in enumerate(arrivals):
        xid += 1
        sim.schedule_at(time, plane.receive,
                        FlowMod(Match(tp_dst=index), [OutputAction(1)], xid=xid))
        if barrier_every and index % barrier_every == barrier_every - 1:
            xid += 1
            sim.schedule_at(time, plane.receive, BarrierRequest(xid=xid))
    if crash_at is not None:
        def crash():
            dataplane.wipe()
            plane.crash_reset()
        sim.schedule_at(crash_at, crash)
        sim.schedule_at(crash_at + down_for, plane.restore)
    sim.run(until=horizon)
    return dataplane.apply_log, plane.barrier_reply_log, sim.steps_executed


_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("gap"), st.sampled_from([0.0, 0.0, 1e-4, 0.003]), st.just(0)),
        st.tuples(st.just("gap"), st.floats(0.0, 2.0), st.just(0)),
        st.tuples(st.just("tick"), st.integers(4, 1500), st.integers(-3, 3)),
    ),
    min_size=1, max_size=25,
)


@settings(max_examples=120, deadline=None)
@given(steps=_STEPS, reorders=st.booleans(), jitter=st.booleans(), lag=st.booleans(),
       barrier_every=st.integers(0, 4),
       crash=st.one_of(st.none(), st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 0.2))))
def test_parked_loop_applies_at_the_floats_the_polling_loop_did(
        steps, reorders, jitter, lag, barrier_every, crash):
    profile = _profile(reorders, jitter, lag)
    arrivals = _arrival_times(profile, steps)
    crash_at = down_for = None
    if crash is not None:
        # Crash somewhere inside the schedule, restore a little later.
        crash_at, down_for = crash[0] * (arrivals[-1] + 0.1), crash[1]
    horizon = arrivals[-1] + 1.0
    args = (profile, arrivals, barrier_every, crash_at, down_for, horizon)
    polled_applies, polled_replies, polled_steps = _run(_PollingControlPlane, *args)
    parked_applies, parked_replies, parked_steps = _run(ControlPlane, *args)
    # ``==`` on the floats, not approx: these times are digest inputs.
    assert parked_applies == polled_applies
    assert parked_replies == polled_replies
    assert parked_steps < polled_steps


def test_the_oracle_and_the_schedule_builder_do_exercise_the_edge():
    # Guard the test itself: tick-snapped completions land within a few ulps
    # of a poll tick, on both sides of it, and rules do get applied.
    profile = _profile(reorders=False, jitter=False)
    tick = _tick(profile, 40)
    sides = set()
    for ulps in (-2, 2):
        (arrival,) = _arrival_times(profile, [("tick", 40, ulps)])
        completes = arrival + profile.flowmod_processing_time(0)
        assert abs(completes - tick) <= 8 * math.ulp(tick)
        sides.add(completes < tick)
        applies, _replies, _steps = _run(
            _PollingControlPlane, profile, [arrival], 0, None, None, arrival + 1.0)
        assert len(applies) == 1
    assert sides == {True, False}


def test_idle_hardware_switch_schedules_nothing():
    sim = Simulator()
    switch = HardwareSwitch(sim, "S")
    switch.start()
    sim.run()  # returns: the agent waits for a message and the sync is parked
    assert sim.pending_count == 0
    settled = sim.steps_executed
    sim.run(until=10.0)
    assert sim.steps_executed == settled
    assert sim.now == 10.0
