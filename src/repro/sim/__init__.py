"""Discrete-event simulation kernel used by every substrate in the repo.

The kernel is deliberately small and dependency free.  The
:class:`Simulator` owns the event heap and the notion of "now"; everything
that happens is a callback scheduled on it (``schedule_callback`` /
``schedule_at``), and the hot paths — links, switch agents, data-plane sync —
are plain callback chains.  On top of that sits the generator-based process
model popularised by SimPy, for code that reads best as a loop (traffic
flows, probing timers): a *process* is a Python generator that ``yield``s a
number or a :class:`Timeout` (sleep for some simulated time), an
:class:`Event` (wait until somebody triggers it), or another
:class:`Process` (wait for it to finish).  There are no queue or semaphore
objects: the one queue a model needed is a ``deque`` in the switch agent.

Example
-------
>>> from repro.sim import Simulator, Timeout
>>> sim = Simulator()
>>> log = []
>>> def worker(sim, name, delay):
...     yield Timeout(delay)
...     log.append((sim.now, name))
>>> _ = sim.process(worker(sim, "a", 2.0))
>>> _ = sim.process(worker(sim, "b", 1.0))
>>> sim.run()
>>> log
[(1.0, 'b'), (2.0, 'a')]
"""

from repro.sim.events import AllOf, AnyOf, Event, Timeout
from repro.sim.kernel import Simulator, StopSimulation
from repro.sim.process import Process, ProcessError
from repro.sim.rng import SeededRandom

__all__ = [
    "AllOf",
    "AnyOf",
    "Event",
    "Process",
    "ProcessError",
    "SeededRandom",
    "Simulator",
    "StopSimulation",
    "Timeout",
]
