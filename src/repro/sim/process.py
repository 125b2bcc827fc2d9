"""Generator-based processes running on top of the simulation kernel.

A process wraps a Python generator.  Each time the generator yields, the
process suspends until the yielded object completes:

* ``yield d``           -- (a number) resume after ``d`` simulated time units,
* ``yield Timeout(d)``  -- the same through an event (carries a value),
* ``yield event``       -- resume when ``event`` is triggered,
* ``yield process``     -- resume when another process terminates,
* ``yield None``        -- resume immediately (a cooperative "yield point").

A process is itself an :class:`~repro.sim.events.Event`: it triggers when the
generator returns (value = the generator's return value) or fails when the
generator raises.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.sim.events import Event, Timeout


class ProcessError(RuntimeError):
    """Raised when a process is misused (e.g. yields an unsupported object)."""


class Process(Event):
    """A running simulation process.

    Do not instantiate directly; use :meth:`repro.sim.Simulator.process`.
    """

    __slots__ = ("generator", "_alive")

    def __init__(self, sim, generator: Generator, name: str = "") -> None:
        super().__init__(name=name or getattr(generator, "__name__", "process"))
        if not hasattr(generator, "send"):
            raise ProcessError(
                f"Simulator.process() requires a generator, got {type(generator).__name__}. "
                "Did you forget to call the generator function?"
            )
        self.sim = sim
        self.generator = generator
        self._alive = True

    # -- public API ---------------------------------------------------------
    @property
    def is_alive(self) -> bool:
        """Whether the process has not yet terminated."""
        return self._alive

    # -- kernel hooks ---------------------------------------------------------
    def _start(self) -> None:
        self._step(None, None)

    def _wake(self) -> None:
        """A numeric sleep is over.  Nothing else can resume a sleeping
        process, so it is still alive and still parked at that ``yield``."""
        self._step(None, None)

    def _resume_with_value(self, event: Event) -> None:
        if not self._alive:
            return
        if event.ok:
            self._step(event.value, None)
        else:
            self._step(None, event.value)

    def _step(self, value: Any, exc: Optional[BaseException]) -> None:
        try:
            if exc is not None:
                yielded = self.generator.throw(exc)
            else:
                yielded = self.generator.send(value)
        except StopIteration as stop:
            self._alive = False
            self.succeed(getattr(stop, "value", None))
            return
        except BaseException as error:  # propagate failures to waiters
            self._alive = False
            if self._callbacks:
                self.fail(error)
            else:
                # Nobody is waiting for this process; surface the bug loudly
                # instead of swallowing it.
                raise
            return
        self._wait_on(yielded)

    def _wait_on(self, yielded: Any) -> None:
        if yielded is None:
            # Cooperative yield: resume on the next kernel step at the same time.
            self.sim.schedule_callback(0.0, self._step, None, None)
            return
        cls = type(yielded)
        if cls is float or cls is int:
            # Numeric sleep — the hot path of every traffic generator: one
            # heap entry that calls straight back into this process.
            self.sim.schedule_callback(float(yielded), self._wake)
            return
        if isinstance(yielded, (int, float)) and not isinstance(yielded, bool):
            yielded = Timeout(float(yielded))
        if isinstance(yielded, Timeout) and not yielded.triggered:
            self.sim._schedule_timeout(yielded)
        if isinstance(yielded, Event):
            yielded.add_callback(self._resume_with_value)
            return
        raise ProcessError(
            f"Process {self.name!r} yielded unsupported object {yielded!r}; "
            "yield an Event, Timeout, Process, a number of time units, or None"
        )
