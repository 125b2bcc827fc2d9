"""Discrete-event simulation kernel used by every substrate in the repo.

The kernel is deliberately small and dependency free.  The
:class:`Simulator` owns the event heap and the notion of "now"; everything
that happens is a callback scheduled on it (``schedule_callback`` after a
delay, ``schedule_at`` at an absolute time), run in time order and FIFO
among ties.  Work that repeats — a traffic source, a probe timer, the
data-plane sync — is a callback that reschedules itself.  An :class:`Event`
is a one-shot notification for code waiting on something (an acknowledgment,
a finished update plan), and :class:`SeededRandom` is where every random
draw comes from.

Example
-------
>>> from repro.sim import Simulator
>>> sim = Simulator()
>>> log = []
>>> def tick(name, interval, left):
...     log.append((sim.now, name))
...     if left > 1:
...         sim.schedule_callback(interval, tick, name, interval, left - 1)
>>> sim.schedule_callback(2.0, tick, "a", 2.0, 2)
>>> sim.schedule_callback(1.0, tick, "b", 1.0, 3)
>>> sim.run()
>>> log
[(1.0, 'b'), (2.0, 'a'), (2.0, 'b'), (3.0, 'b'), (4.0, 'a')]
>>> sim.steps_executed
5
"""

from repro.sim.events import Event
from repro.sim.kernel import Simulator, StopSimulation
from repro.sim.rng import SeededRandom

__all__ = [
    "Event",
    "SeededRandom",
    "Simulator",
    "StopSimulation",
]
