"""Recovery-centric outage scenarios: rolling upgrades and correlated failures.

Both scenarios run the generalized path migration of
:class:`~repro.scenarios.migration.PathMigrationScenario` on a fat-tree and
layer a *timeline* of lifecycle faults on top, exercising the controller-side
recovery subsystem (:mod:`repro.recovery`):

* ``rolling-upgrade`` — a staggered crash wave across every switch of pod 0
  (the pod the tracked flows ingress through), the simulated analogue of a
  rolling firmware upgrade.  Each switch crashes, reboots with wiped tables,
  and — when recovery is armed — gets its intended rules replayed from the
  controller's shadow state.
* ``correlated-tor-outage`` — one correlated failure group: the pod-0 edge
  (ToR) switch crashes while its aggregation uplink flaps, the classic
  "power event takes out the rack and wobbles the uplink" incident.

Both default recovery **on** (sweep ``--recovery off`` for the ablation) and
report the convergence accounting through ``RunRecord.recovery``.
"""

from __future__ import annotations

from typing import Dict

from repro.controller.update_plan import UpdatePlan
from repro.faults.plan import FaultPlan
from repro.net.network import Network
from repro.recovery.policy import NO_RECOVERY, RecoveryPolicy
from repro.scenarios.migration import PathMigrationScenario


#: The stock ``ScenarioParams.grace`` — used to detect "caller kept the
#: default", which is too short to see the whole outage timeline play out.
_STOCK_GRACE = PathMigrationScenario().params.grace


class _RecoveryScenario(PathMigrationScenario):
    """Shared plumbing: recovery defaults on; damage metrics on top."""

    #: Subclasses set the timeline armed when ``params.faults`` is unset.
    default_timeline = ""
    #: Post-update traffic window long enough for every crash in the default
    #: timeline to restore *and* for post-restore forwarding to be observed.
    default_grace = 1.6

    def __init__(self, params=None) -> None:
        super().__init__(params)
        if self.params.grace == _STOCK_GRACE:
            self.params = self.params.scaled(grace=self.default_grace)

    def fault_plan(self) -> FaultPlan:
        return FaultPlan.from_string(self.params.faults or self.default_timeline)

    def recovery_policy(self):
        # Unset means *on* here (the scenarios exist to exercise recovery);
        # every "off" spelling still disables it for the ablation arm.
        if self.params.recovery is None:
            return RecoveryPolicy()
        if self.params.recovery.strip().lower() in NO_RECOVERY:
            return None
        return RecoveryPolicy.from_string(self.params.recovery)

    def metrics(self, network: Network, plan: UpdatePlan,
                executor) -> Dict[str, object]:
        metrics = super().metrics(network, plan, executor)
        metrics["fault_plan"] = self.fault_plan().to_string()
        metrics["diverged_switches"] = sum(
            1 for switch in network.switches.values() if not switch.planes_agree()
        )
        metrics["crashed_switches"] = sum(
            1 for switch in network.switches.values() if switch.crashed
        )
        metrics["executor"] = executor.summary()
        return metrics


class RollingUpgradeScenario(_RecoveryScenario):
    """Path migration under a staggered crash wave across fat-tree pod 0."""

    name = "rolling-upgrade"
    description = ("staggered switch-crash wave across pod 0 during a path "
                   "migration; pairs with --recovery on/off")
    default_topology = "fat-tree"
    default_timeline = ("rolling(switch-crash(restart_after=0.2)@pod:0,"
                        "stagger=0.15,at=0.4)")


class CorrelatedTorOutageScenario(_RecoveryScenario):
    """Path migration under a correlated ToR crash + uplink flap."""

    name = "correlated-tor-outage"
    description = ("pod-0 ToR crash correlated with an aggregation uplink "
                   "flap; pairs with --recovery on/off")
    default_topology = "fat-tree"
    default_timeline = ("group(switch-crash(restart_after=0.4)@E0-0,"
                        "link-flap(duration=0.3)@A0-0)@t=0.5")
