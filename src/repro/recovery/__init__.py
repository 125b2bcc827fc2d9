"""Controller-side recovery: shadow state, resync-on-reconnect, retransmits.

The fault subsystem (:mod:`repro.faults`) makes switches fail; this package
makes failure *survivable*.  A :class:`RecoveryPolicy` rides on
``SessionKnobs.recovery`` exactly like a fault plan rides on
``SessionSpec.faults``, and like a plan it has one codec, its one-line
string (``"on"``, ``"on(max_attempts=6)"``; every "off" spelling parses to
``None``):

* the controller keeps a per-switch **shadow table** of intended rules
  (:class:`~repro.recovery.shadow.ShadowStore`, fed from every
  ``send_flowmod``);
* on a switch reconnect the shadow is diffed against the wiped switch and
  the missing rules are **replayed through the active technique's
  machinery** (barriers/probing apply to reinstalls too), traced as
  ``resync-started`` / ``rule-reinstalled`` / ``resync-complete``;
* un-acked FlowMods are **retransmitted with exponential backoff** and
  failed — not left pending forever — after ``max_attempts``.

A session without a policy arms nothing and is byte-identical to a build
without this package.

Typical use::

    from repro.recovery import RecoveryPolicy
    from repro.scenarios import ScenarioParams, run_scenario

    params = ScenarioParams(faults="switch-crash(at=0.5,restart_after=0.5)",
                            recovery="on")
    record = run_scenario("path-migration", "general", params)
    print(record.recovery)   # {'reconverged': True, 'rules_reinstalled': ...}
"""

from repro.recovery.manager import RecoveryManager
from repro.recovery.policy import NO_RECOVERY, RecoveryPolicy
from repro.recovery.shadow import ShadowStore

__all__ = [
    "NO_RECOVERY",
    "RecoveryManager",
    "RecoveryPolicy",
    "ShadowStore",
]
