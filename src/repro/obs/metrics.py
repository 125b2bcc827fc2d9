"""Lightweight metrics registry: counters and gauges.

Metrics complement the event trace with *state over time*: queue depths,
table occupancy, packets dropped per fault model.  Gauges store
``[ts, value]`` samples (simulation time, not wall time) so they plot
directly against the lifecycle timeline; counters are plain monotonically
increasing integers.

The registry is deliberately tiny — no labels, no exposition format — and
is sampled on the simulated clock via
:meth:`repro.sim.kernel.Simulator.every`, which re-schedules a callback at
a fixed sim-time interval and can be cancelled when the run settles.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple


class Counter:
    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Gauge:
    """Sampled level; keeps the full ``[ts, value]`` series."""

    __slots__ = ("name", "samples")

    def __init__(self, name: str) -> None:
        self.name = name
        self.samples: List[Tuple[float, float]] = []

    def set(self, ts: float, value: float) -> None:
        self.samples.append((ts, value))


class MetricsRegistry:
    """Name → instrument, created on first use."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}

    def counter(self, name: str) -> Counter:
        inst = self._counters.get(name)
        if inst is None:
            inst = self._counters[name] = Counter(name)
        return inst

    def gauge(self, name: str) -> Gauge:
        inst = self._gauges.get(name)
        if inst is None:
            inst = self._gauges[name] = Gauge(name)
        return inst

    def as_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {}
        for name, counter in sorted(self._counters.items()):
            out[name] = counter.value
        for name, gauge in sorted(self._gauges.items()):
            out[name] = [[ts, value] for ts, value in gauge.samples]
        return out
