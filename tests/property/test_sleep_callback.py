"""One-callback process sleeps against the Timeout-backed sleeps they replaced.

``yield 0.004`` used to arm a (pooled) ``Timeout`` whose firing walked the
event dispatch back into the process; it now schedules ``Process._wake``
directly.  The kernel event stream must not notice: the same heap entry at
the same float with the same sequence number, so every process observes the
same times in the same order and ``schedule_sequence`` agrees at every step.
The old route lives on here as the oracle: a ``Process`` whose numeric
yields go through ``sim.timeout(delay)``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from generator_agent import Queue

from repro.sim import Process, Simulator


class _TimeoutSleepProcess(Process):
    """``Process`` with the pre-``_wake`` numeric sleep."""

    def _wait_on(self, yielded):
        if type(yielded) in (float, int):
            # One heap entry, like the pooled Timeout: fire -> succeed ->
            # dispatch -> _resume_with_value.
            self.sim.timeout(float(yielded)).add_callback(self._resume_with_value)
            return
        super()._wait_on(yielded)


_DELAYS = st.sampled_from((0, 0.0, 1, 2, 0.25, 0.1, 0.30000000000000004, 1e-9))
_SHARED = st.integers(0, 2)

_OPS = st.one_of(
    st.tuples(st.just("sleep"), _DELAYS),
    st.tuples(st.just("sleep"), _DELAYS),
    st.tuples(st.just("pass")),
    st.tuples(st.just("wait"), _SHARED),
    st.tuples(st.just("succeed"), _SHARED),
    st.tuples(st.just("fail"), _SHARED),
    st.tuples(st.just("put"), _SHARED),
    st.tuples(st.just("get"), _SHARED),
    st.tuples(st.just("join"), st.integers(0, 3)),
)
#: Up to four processes of up to eight steps: short ones end while others sleep.
_PROGRAMS = st.lists(st.lists(_OPS, max_size=8), min_size=1, max_size=4)
#: ``run(until=...)`` bounds, in order; the run is then resumed to the end.
_CUTS = st.lists(st.sampled_from((0.05, 0.25, 0.3, 1.0, 1.5, 2.125)),
                 max_size=3).map(sorted)


def _execute(program, cuts, process_class):
    """Run ``program`` and return its ``(time, process, step, seen, sequence)`` log."""
    sim = Simulator()
    events = [sim.event(name=f"shared-{index}") for index in range(3)]
    queues = [Queue(sim, name=f"queue-{index}") for index in range(3)]
    processes = []
    log = []

    def body(pid, ops):
        for step, op in enumerate(ops):
            seen = None
            try:
                if op[0] == "sleep":
                    seen = yield op[1]
                elif op[0] == "pass":
                    seen = yield None
                elif op[0] == "wait":
                    seen = yield events[op[1]]
                elif op[0] == "succeed":
                    if not events[op[1]].triggered:
                        events[op[1]].succeed((pid, step))
                elif op[0] == "fail":
                    if not events[op[1]].triggered:
                        events[op[1]].fail(RuntimeError(f"failed by {pid}.{step}"))
                elif op[0] == "put":
                    queues[op[1]].put((pid, step))
                elif op[0] == "get":
                    seen = yield queues[op[1]].get()
                elif op[1] < len(processes) and op[1] != pid:
                    seen = yield processes[op[1]]
            except RuntimeError as error:  # a failed event, thrown in
                seen = str(error)
            log.append((sim.now, pid, step, seen, sim.schedule_sequence))
        return pid

    for pid, ops in enumerate(program):
        process = process_class(sim, body(pid, ops), name=f"p{pid}")
        sim.schedule_callback(0.0, process._start)  # what Simulator.process does
        processes.append(process)
    for until in cuts:
        sim.run(until=until)
        log.append(("cut", sim.now, sim.schedule_sequence, sim.steps_executed))
    sim.run()
    log.append(("end", sim.now, sim.schedule_sequence, sim.steps_executed,
                [process.is_alive for process in processes]))
    return log


@settings(max_examples=300, deadline=None)
@given(_PROGRAMS, _CUTS)
def test_a_numeric_sleep_is_the_same_kernel_event_as_a_timeout(program, cuts):
    assert _execute(program, cuts, Process) == _execute(
        program, cuts, _TimeoutSleepProcess)


def test_only_the_oracle_sleeps_through_timeouts(monkeypatch):
    armed = []
    original = Simulator.timeout

    def counting_timeout(self, delay, value=None):
        armed.append(delay)
        return original(self, delay, value)

    monkeypatch.setattr(Simulator, "timeout", counting_timeout)
    program = [[("sleep", 1), ("sleep", 0.25)], [("sleep", 0)]]
    _execute(program, [], Process)
    assert armed == []
    _execute(program, [], _TimeoutSleepProcess)
    assert armed == [1.0, 0.0, 0.25]
