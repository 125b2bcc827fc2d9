"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim import AllOf, AnyOf, Event, Process, Simulator, Timeout
from repro.sim.events import EventAlreadyTriggered
from repro.sim.process import ProcessError


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


def test_process_waits_for_timeout():
    sim = Simulator()
    log = []

    def worker():
        yield Timeout(1.5)
        log.append(sim.now)

    sim.process(worker())
    sim.run()
    assert log == [1.5]


def test_process_yielding_number_sleeps():
    sim = Simulator()
    log = []

    def worker():
        yield 0.25
        log.append(sim.now)

    sim.process(worker())
    sim.run()
    assert log == [0.25]


def test_process_return_value_becomes_event_value():
    sim = Simulator()
    results = []

    def child():
        yield 1.0
        return 42

    def parent():
        value = yield sim.process(child())
        results.append(value)

    sim.process(parent())
    sim.run()
    assert results == [42]


def test_process_waits_for_event_value():
    sim = Simulator()
    event = sim.event()
    seen = []

    def waiter():
        value = yield event
        seen.append((sim.now, value))

    sim.process(waiter())
    sim.schedule_callback(3.0, lambda: event.succeed("done"))
    sim.run()
    assert seen == [(3.0, "done")]


def test_event_fail_raises_inside_process():
    sim = Simulator()
    event = sim.event()
    caught = []

    def waiter():
        try:
            yield event
        except RuntimeError as error:
            caught.append(str(error))

    sim.process(waiter())
    sim.schedule_callback(1.0, lambda: event.fail(RuntimeError("boom")))
    sim.run()
    assert caught == ["boom"]


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


def test_allof_collects_values_in_order():
    sim = Simulator()
    first, second = sim.event(), sim.event()
    combined = AllOf([first, second])
    sim.schedule_callback(2.0, lambda: second.succeed("b"))
    sim.schedule_callback(1.0, lambda: first.succeed("a"))
    sim.run()
    assert combined.triggered
    assert combined.value == ["a", "b"]


def test_allof_of_nothing_triggers_immediately():
    combined = AllOf([])
    assert combined.triggered
    assert combined.value == []


def test_anyof_triggers_on_first_completion():
    sim = Simulator()
    first, second = sim.event(), sim.event()
    combined = AnyOf([first, second])
    sim.schedule_callback(1.0, lambda: second.succeed("fast"))
    sim.schedule_callback(2.0, lambda: first.succeed("slow"))
    sim.run()
    event, value = combined.value
    assert event is second
    assert value == "fast"


def test_process_requires_generator():
    sim = Simulator()
    with pytest.raises(ProcessError):
        Process(sim, lambda: None)  # type: ignore[arg-type]


def test_process_unsupported_yield_raises():
    sim = Simulator()

    def worker():
        yield "not-an-event"

    sim.process(worker())
    with pytest.raises(ProcessError):
        sim.run()


def test_timeout_negative_delay_rejected():
    with pytest.raises(ValueError):
        Timeout(-1.0)


def test_peek_returns_next_event_time():
    sim = Simulator()
    sim.schedule_callback(4.0, lambda: None)
    assert sim.peek() == 4.0
    sim.run()
    assert sim.peek() is None
