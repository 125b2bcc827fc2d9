"""Regression tests for the fused kernel loop, numeric process sleeps, and
event completion semantics on failed events."""

import pytest

from repro.sim import AllOf, AnyOf, Event, Simulator, Timeout
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
    sim.run(until=1.0)  # already past; must not move time backwards
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
def test_numeric_yields_build_no_timeout_objects(monkeypatch):
    built = []
    original = Timeout.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(Timeout, "__init__", counting_init)
    sim = Simulator()
    resumed = []

    def sleeper():
        for _ in range(50):
            yield 0.01
        resumed.append(sim.now)

    sim.process(sleeper())
    sim.run()
    assert resumed and resumed[0] == pytest.approx(0.5)
    # A sleep is one heap entry that calls the process back: the start plus
    # fifty sleeps, and no Timeout behind any of them.
    assert built == []
    assert sim.schedule_sequence == sim.steps_executed == 51


def test_interleaved_numeric_sleeps_wake_each_process_on_its_own_schedule():
    sim = Simulator()
    log = []

    def worker(name, interval):
        for _ in range(10):
            yield interval
        log.append((name, round(sim.now, 6)))

    sim.process(worker("fast", 0.001))
    sim.process(worker("slow", 0.003))
    sim.run()
    assert ("fast", 0.01) in log and ("slow", 0.03) in log


def test_numeric_yield_resumes_with_none():
    sim = Simulator()
    seen = []

    def worker():
        value = yield 0.5
        seen.append(value)

    sim.process(worker())
    sim.run()
    assert seen == [None]


def test_explicit_timeout_objects_fire_with_their_value():
    sim = Simulator()
    timeout = sim.timeout(1.0, value="payload")
    seen = []

    def waiter():
        seen.append((yield timeout))

    sim.process(waiter())
    sim.run()
    assert timeout.triggered and timeout.value == "payload"
    assert seen == ["payload"] and sim.now == 1.0


# -- single-fire semantics on failed events (satellite regression) ------------
def test_late_subscriber_on_failed_event_fires_exactly_once():
    event = Event()
    error = RuntimeError("boom")
    event.fail(error)
    calls = []
    event.add_callback(calls.append)
    assert calls == [event]
    assert calls[0].value is error and not calls[0].ok


def test_allof_over_prefailed_child_fires_exactly_once():
    sim = Simulator()
    failed = Event()
    failed.fail(RuntimeError("early failure"))
    pending = sim.event()
    combined = AllOf([failed, pending])
    fires = []
    combined.add_callback(fires.append)
    # Failed child observed at construction: composite already failed, once.
    assert combined.triggered and not combined.ok
    assert len(fires) == 1
    # The still-pending child completing later must not re-fire the composite.
    pending.succeed("late")
    assert len(fires) == 1


def test_allof_with_same_failed_event_twice_fires_once():
    failed = Event()
    failed.fail(RuntimeError("dup"))
    fires = []
    combined = AllOf([failed, failed])
    combined.add_callback(fires.append)
    assert len(fires) == 1 and not combined.ok


def test_allof_second_child_failing_later_does_not_refire():
    sim = Simulator()
    first, second = sim.event(), sim.event()
    combined = AllOf([first, second])
    fires = []
    combined.add_callback(fires.append)
    sim.schedule_callback(1.0, lambda: first.fail(RuntimeError("one")))
    sim.schedule_callback(2.0, lambda: second.fail(RuntimeError("two")))
    sim.run()
    assert len(fires) == 1
    assert str(combined.value) == "one"


def test_anyof_over_prefailed_child_fails_once():
    failed = Event()
    failed.fail(RuntimeError("gone"))
    pending = Event()
    fires = []
    combined = AnyOf([failed, pending])
    combined.add_callback(fires.append)
    assert len(fires) == 1 and not combined.ok
    pending.succeed()
    assert len(fires) == 1


def test_process_waiting_on_prefailed_event_gets_exception_once():
    sim = Simulator()
    failed = sim.event()
    failed.fail(RuntimeError("pre-failed"))
    caught = []

    def waiter():
        try:
            yield failed
        except RuntimeError as error:
            caught.append(str(error))
        yield 1.0  # keep running afterwards: no double resume may occur

    sim.process(waiter())
    sim.run()
    assert caught == ["pre-failed"]
    assert sim.now == 1.0
