"""The ``fault-sweep`` scenario: path migration under injected switch faults.

The workload is the generalized path migration of
:class:`~repro.scenarios.migration.PathMigrationScenario` — the repo's most
sensitive correctness probe, since every lost packet and late rule shows up
in the per-flow statistics — but the run is armed, by default, with a
representative mix of the paper's misbehaviours: occasional multi-second
data-plane delay spikes plus lossy barrier acknowledgments.  Sweeping
``ScenarioParams.faults`` (or the campaign ``--faults`` axis) against this
scenario is how the resilience report compares acknowledgment techniques
under identical fault schedules.
"""

from __future__ import annotations

from typing import Dict

from repro.controller.update_plan import UpdatePlan
from repro.faults.plan import FaultPlan
from repro.net.network import Network
from repro.scenarios.migration import PathMigrationScenario

#: The mix armed when ``params.faults`` is unset: rare-but-long activation
#: delays (breaks timeout techniques) and lossy barrier replies (breaks
#: barrier techniques), leaving data-plane probing as the robust baseline.
DEFAULT_FAULT_MIX = "delay-spike(probability=0.1,spike=1.0)+ack-loss(probability=0.2)"


class FaultSweepScenario(PathMigrationScenario):
    """Path migration with a fault plan armed (default: delay spikes + ack loss)."""

    name = "fault-sweep"
    description = ("path migration under injected faults; sweep "
                   "ScenarioParams.faults / --faults to compare techniques")
    default_topology = "leaf-spine"

    def fault_plan(self) -> FaultPlan:
        return FaultPlan.from_string(self.params.faults or DEFAULT_FAULT_MIX)

    def metrics(self, network: Network, plan: UpdatePlan,
                executor) -> Dict[str, object]:
        metrics = super().metrics(network, plan, executor)
        metrics["fault_plan"] = self.fault_plan().to_string()
        # How much damage is still visible when the run ends: switches whose
        # control- and data-plane tables disagree, and crashed switches.
        metrics["diverged_switches"] = sum(
            1 for switch in network.switches.values() if not switch.planes_agree()
        )
        metrics["crashed_switches"] = sum(
            1 for switch in network.switches.values() if switch.crashed
        )
        return metrics
