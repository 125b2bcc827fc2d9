"""Regression tests for the fused kernel loop, and for the numeric sleeps of
``spawn``, the generator driver the agent oracle runs on."""

import pytest
from generator_agent import spawn

from repro.sim import Simulator
from repro.sim.kernel import StopSimulation


# -- run(until=...) idle tail (satellite bugfix) ------------------------------
def test_run_until_advances_clock_when_heap_drains_early():
    sim = Simulator()
    sim.schedule_callback(1.0, lambda: None)
    sim.run(until=5.0)
    # The last event fires at t=1 and the heap drains; the idle tail up to
    # ``until`` still elapses.
    assert sim.now == 5.0


def test_run_until_with_empty_heap_advances_clock():
    sim = Simulator()
    sim.run(until=2.5)
    assert sim.now == 2.5


def test_run_without_until_keeps_last_event_time():
    sim = Simulator()
    sim.schedule_callback(1.5, lambda: None)
    sim.run()
    assert sim.now == 1.5


def test_run_until_before_now_is_noop_for_clock():
    sim = Simulator()
    sim.schedule_callback(3.0, lambda: None)
    sim.run()
    with pytest.raises(ValueError, match="until=1.0"):
        sim.run(until=1.0)  # already past: refused, time does not move backwards
    assert sim.now == 3.0


def test_stop_simulation_leaves_clock_at_stop_event():
    sim = Simulator()

    def stop():
        raise StopSimulation

    sim.schedule_callback(1.0, stop)
    sim.schedule_callback(9.0, lambda: None)
    sim.run(until=20.0)
    assert sim.now == 1.0


def test_steps_executed_counts_callbacks():
    sim = Simulator()
    for _ in range(5):
        sim.schedule_callback(0.1, lambda: None)
    sim.run()
    assert sim.steps_executed == 5


# -- numeric sleeps -----------------------------------------------------------
def test_interleaved_numeric_sleeps_wake_each_process_on_its_own_schedule():
    sim = Simulator()
    log = []

    def worker(name, interval):
        for _ in range(10):
            yield interval
        log.append((name, round(sim.now, 6)))

    spawn(sim, worker("fast", 0.001))
    spawn(sim, worker("slow", 0.003))
    sim.run()
    assert ("fast", 0.01) in log and ("slow", 0.03) in log
    # Two starts and twenty sleeps, one heap entry each.
    assert sim.steps_executed == 22


def test_numeric_yield_resumes_with_none():
    sim = Simulator()
    seen = []

    def worker():
        value = yield 0.5
        seen.append(value)

    spawn(sim, worker())
    sim.run()
    assert seen == [None]
