"""Data-plane activation faults.

These sit exactly at the control/data plane boundary where the paper's real
bugs live: the control plane has processed a FlowMod (and may already have
acknowledged it) but the rule is not yet — or never — what packets hit.

* :class:`DelaySpikeFault` (``delay-spike``) — occasionally the control→data
  plane lag jumps to several seconds ("in hard to predict corner cases, the
  delay may reach several seconds"), which breaks static-timeout techniques.
* :class:`ReorderFault` (``reorder``) — applies buffered modifications in shuffled
  order but at one instant, so it does not break sequential probing (0 early acks
  in 192 cells); releasing them at distinct instants (ROADMAP item 12(a)) would.
* :class:`RuleDropFault` (``rule-drop``) — a modification is silently never
  applied to the data plane at all: the control plane (and any barrier reply)
  claims success while packets keep missing the rule forever.
"""

from __future__ import annotations

from typing import Callable, List, Tuple

from repro.faults.base import DataPlaneFault
from repro.openflow.messages import FlowMod


class DelaySpikeFault(DataPlaneFault):
    """With probability ``probability`` delay an application by ``spike`` seconds."""

    name = "delay-spike"
    param_defaults = {"probability": 0.01, "spike": 2.0}

    def validate(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")

    def intercept(self, flowmod: FlowMod, apply: Callable[[FlowMod, float], None]) -> bool:
        if self.rng.uniform(0.0, 1.0) >= self.probability:
            return False
        self.count("delay_spikes")
        self.sim.schedule_callback(self.spike, apply, flowmod, self.sim.now + self.spike)
        return True


class ReorderFault(DataPlaneFault):
    """Hold applications in a small buffer and release them in shuffled order."""

    name = "reorder"
    param_defaults = {"window": 4, "hold_time": 0.02}

    def validate(self) -> None:
        if self.window < 2:
            raise ValueError("window must be >= 2")

    def setup(self) -> None:
        # Each buffered item keeps the apply hook it was intercepted with:
        # the hook carries the crash epoch of that moment, so modifications
        # buffered before a switch crash die with it even if the buffer
        # flushes after the restart.
        self._buffer: List[Tuple[FlowMod, Callable[[FlowMod, float], None]]] = []

    def intercept(self, flowmod: FlowMod, apply: Callable[[FlowMod, float], None]) -> bool:
        self._buffer.append((flowmod, apply))
        if len(self._buffer) >= self.window:
            self._flush()
        else:
            self.sim.schedule_callback(self.hold_time, self._flush_if_stale, len(self._buffer))
        return True

    def _flush_if_stale(self, expected_size: int) -> None:
        if self._buffer and len(self._buffer) <= expected_size:
            self._flush()

    def _flush(self) -> None:
        if not self._buffer:
            return
        batch, self._buffer = self._buffer, []
        shuffled = self.rng.shuffle(batch)
        if shuffled != batch:
            self.count("reorders")
        for flowmod, apply in shuffled:
            apply(flowmod, self.sim.now)


class RuleDropFault(DataPlaneFault):
    """With probability ``probability`` a rule silently never reaches the data plane."""

    name = "rule-drop"
    param_defaults = {"probability": 0.05}

    def validate(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")

    def intercept(self, flowmod: FlowMod, apply: Callable[[FlowMod, float], None]) -> bool:
        if self.rng.uniform(0.0, 1.0) >= self.probability:
            return False
        self.count("rules_dropped")
        return True
