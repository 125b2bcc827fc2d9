"""Unit tests for the discrete-event simulation kernel, and for ``spawn``,
the generator driver the agent oracle (``tests/oracles/generator_agent.py``)
runs on: one heap entry per sleep, resumed from an event's dispatch."""

import doctest

import pytest

from generator_agent import spawn

import repro.sim
from repro.sim import Event, Simulator
from repro.sim.events import EventAlreadyTriggered


def test_the_package_docstring_example_runs():
    failed, attempted = doctest.testmod(repro.sim)
    assert failed == 0 and attempted > 0


def test_time_starts_at_zero():
    assert Simulator().now == 0.0


def test_schedule_callback_runs_in_time_order():
    sim = Simulator()
    log = []
    sim.schedule_callback(2.0, lambda: log.append("late"))
    sim.schedule_callback(1.0, lambda: log.append("early"))
    sim.run()
    assert log == ["early", "late"]
    assert sim.now == 2.0


def test_same_time_callbacks_run_fifo():
    sim = Simulator()
    log = []
    for index in range(5):
        sim.schedule_callback(1.0, log.append, index)
    sim.run()
    assert log == [0, 1, 2, 3, 4]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.schedule_callback(-0.1, lambda: None)


def test_nan_times_are_rejected_not_scheduled():
    sim = Simulator()
    with pytest.raises(ValueError, match="NaN"):
        sim.schedule_callback(float("nan"), lambda: None)
    with pytest.raises(ValueError, match="NaN"):
        sim.schedule_at(float("nan"), lambda: None)
    assert sim.pending_count == 0


def test_schedule_at_fires_at_the_exact_float():
    sim = Simulator()
    sim.schedule_callback(0.2, lambda: None)
    sim.run()
    # A delay cannot always name an absolute time: 0.2 + (0.9 - 0.2) < 0.9.
    assert sim.now + (0.9 - sim.now) != 0.9
    fired = []
    sim.schedule_at(0.9, lambda: fired.append(sim.now))
    sim.schedule_callback(0.9 - sim.now, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [0.8999999999999999, 0.9]


def test_schedule_at_ties_fifo_with_schedule_callback():
    sim = Simulator()
    log = []
    sim.schedule_callback(0.5, log.append, "delay-1")
    sim.schedule_at(0.5, log.append, "at")
    sim.schedule_callback(0.5, log.append, "delay-2")
    sim.schedule_at(sim.now, log.append, "now")  # the present is not the past
    sim.run()
    assert log == ["now", "delay-1", "at", "delay-2"]


def test_schedule_at_rejects_the_past():
    sim = Simulator()
    sim.schedule_callback(1.0, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.schedule_at(0.5, lambda: None)
    assert sim.pending_count == 0


def test_run_until_stops_before_later_events():
    sim = Simulator()
    log = []
    sim.schedule_callback(1.0, lambda: log.append(1))
    sim.schedule_callback(5.0, lambda: log.append(5))
    sim.run(until=2.0)
    assert log == [1]
    assert sim.now == 2.0


def test_run_max_steps_guard():
    sim = Simulator()

    def reschedule():
        sim.schedule_callback(0.001, reschedule)

    sim.schedule_callback(0.0, reschedule)
    with pytest.raises(RuntimeError):
        sim.run(max_steps=50)


def test_process_yielding_number_sleeps():
    sim = Simulator()
    log = []

    def worker():
        yield 0.25
        log.append(sim.now)

    spawn(sim, worker())
    sim.run()
    assert log == [0.25]
    # The start, then one heap entry for the sleep.
    assert sim.schedule_sequence == sim.steps_executed == 2


def test_process_waits_for_event_value():
    sim = Simulator()
    event = sim.event()
    seen = []

    def waiter():
        value = yield event
        seen.append((sim.now, value))

    spawn(sim, waiter())
    sim.schedule_callback(3.0, lambda: event.succeed("done"))
    sim.run()
    assert seen == [(3.0, "done")]
    # Resumed inside the succeeding callback, not from a heap entry of its own.
    assert sim.steps_executed == 2


def test_event_cannot_trigger_twice():
    event = Event()
    event.succeed(1)
    with pytest.raises(EventAlreadyTriggered):
        event.succeed(2)


def test_event_callback_after_trigger_runs_immediately():
    event = Event()
    event.succeed("x")
    seen = []
    event.add_callback(lambda evt: seen.append(evt.value))
    assert seen == ["x"]


def test_peek_returns_next_event_time():
    sim = Simulator()
    sim.schedule_callback(4.0, lambda: None)
    assert sim.peek() == 4.0
    sim.run()
    assert sim.peek() is None
