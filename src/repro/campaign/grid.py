"""Parameter grids for scenario campaigns.

A :class:`CampaignSpec` names the axes of a sweep — scenarios, techniques,
fault plans, topology scales and seeds — and expands into the cross product of
:class:`CampaignCell` instances.  Every cell derives a stable ``cell_id``
from the SHA-1 of its canonical JSON configuration; the run store indexes
result records by that id, which is what makes interrupted campaigns
resumable without re-running finished cells.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.techniques.registry import available_techniques
from repro.faults.plan import NO_FAULTS, FaultPlan
from repro.recovery.policy import NO_RECOVERY, RecoveryPolicy
from repro.scenarios.base import ScenarioParams, available_scenarios


@dataclass(frozen=True)
class CampaignCell:
    """One point of the (scenario × technique × fault × scale × seed) grid."""

    scenario: str
    technique: str
    scale: int = 1
    seed: int = 1
    topology: str = "auto"
    flow_count: int = 8
    rate_pps: float = 250.0
    max_update_duration: float = 15.0
    #: Fault plan in compact string form.  ``None`` — the axis is absent —
    #: leaves the choice to the scenario (its ``default_timeline`` or default
    #: mix, nothing for most); an explicit ``"none"`` is a fault-free control
    #: run even there.
    fault: Optional[str] = None
    #: Recovery policy in compact string form (see
    #: :meth:`repro.recovery.RecoveryPolicy.from_string`).  ``None`` leaves it
    #: to the scenario (``rolling-upgrade`` defaults recovery on); an explicit
    #: ``"off"`` is an unrecovered control run even there.
    recovery: Optional[str] = None
    #: Arm rule-lifecycle tracing for this cell (see :mod:`repro.obs`).
    trace: bool = False

    def config(self) -> Dict[str, object]:
        """The canonical, JSON-able configuration of this cell.

        The ``fault`` and ``recovery`` keys are only present when the axis
        is: a cell without them hashes to the same ``cell_id`` as before the
        axes existed, so a store filled before them still serves its
        finished cells instead of re-running them.  An
        explicit ``"none"`` / ``"off"`` is written out — for a scenario with
        defaults of its own it is a different run from the absent axis, and
        the store must never serve one for the other.
        ``trace`` follows the only-when-armed rule — and because
        tracing never changes a cell's outcome, a traced cell_id staying
        distinct from its untraced twin is intentional: their records carry
        different payloads (the traced one has a shard).
        """
        config = {
            "scenario": self.scenario,
            "technique": self.technique,
            "scale": self.scale,
            "seed": self.seed,
            "topology": self.topology,
            "flow_count": self.flow_count,
            "rate_pps": self.rate_pps,
            "max_update_duration": self.max_update_duration,
        }
        if self.fault is not None:
            config["fault"] = self.fault
        if self.recovery is not None:
            config["recovery"] = self.recovery
        if self.trace:
            config["trace"] = True
        return config

    @property
    def cell_id(self) -> str:
        """Stable hash of the configuration (the run store's index key)."""
        canonical = json.dumps(self.config(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha1(canonical.encode("utf-8")).hexdigest()[:16]

    def scenario_params(self) -> ScenarioParams:
        """The :class:`ScenarioParams` this cell runs with."""
        return ScenarioParams(
            topology=self.topology,
            scale=self.scale,
            seed=self.seed,
            flow_count=self.flow_count,
            rate_pps=self.rate_pps,
            max_update_duration=self.max_update_duration,
            # Both verbatim, ``None`` included: scenarios built around faults
            # (fault-sweep, rolling-upgrade, correlated-tor-outage) arm their
            # own defaults only when the axis is absent.
            faults=self.fault,
            recovery=self.recovery,
            trace=self.trace,
        )

    def describe(self) -> str:
        """Short human-readable label for progress output."""
        label = (f"{self.scenario}/{self.technique} "
                 f"topo={self.topology} scale={self.scale} seed={self.seed}")
        if (self.fault or "none").lower() not in NO_FAULTS:
            label += f" fault={self.fault}"
        if (self.recovery or "off").lower() not in NO_RECOVERY:
            label += f" recovery={self.recovery}"
        if self.trace:
            label += " trace"
        return label


@dataclass
class CampaignSpec:
    """The axes of a campaign grid."""

    scenarios: List[str] = field(
        default_factory=lambda: ["path-migration", "link-failure", "ecmp-rebalance"]
    )
    techniques: List[str] = field(default_factory=lambda: ["barrier", "general"])
    scales: List[int] = field(default_factory=lambda: [1])
    seeds: List[int] = field(default_factory=lambda: [1, 2])
    #: Fault-plan strings (see :meth:`repro.faults.FaultPlan.from_string`);
    #: include ``"none"`` to keep a fault-free control group in the grid.
    #: The default is the absent axis: each scenario's own faults, if any.
    faults: List[Optional[str]] = field(default_factory=lambda: [None])
    #: Recovery-policy strings (see
    #: :meth:`repro.recovery.RecoveryPolicy.from_string`); include ``"off"``
    #: to keep an unrecovered control group next to the recovered cells.
    #: The default is the absent axis: each scenario's own policy.
    recoveries: List[Optional[str]] = field(default_factory=lambda: [None])
    topology: str = "auto"
    flow_count: int = 8
    rate_pps: float = 250.0
    max_update_duration: float = 15.0
    #: Arm rule-lifecycle tracing on every cell (``--trace`` on the CLI);
    #: the runner then writes one Chrome-trace shard per cell.
    trace: bool = False

    def validate(self) -> None:
        """Reject empty axes and unknown scenario/technique/fault names early."""
        for axis_name in ("scenarios", "techniques", "scales", "seeds", "faults",
                          "recoveries"):
            if not getattr(self, axis_name):
                raise ValueError(f"campaign axis {axis_name!r} is empty")
        known = set(available_scenarios())
        unknown = [name for name in self.scenarios if name not in known]
        if unknown:
            raise ValueError(
                f"unknown scenario(s) {unknown}; available: {sorted(known)}"
            )
        valid_techniques = set(available_techniques())
        bad = [name for name in self.techniques if name not in valid_techniques]
        if bad:
            raise ValueError(
                f"unknown technique(s) {bad}; available: {sorted(valid_techniques)}"
            )
        for fault in self.faults:
            try:
                FaultPlan.from_string(fault).validate()
            # TypeError covers non-numeric parameter values ("probability=oops"
            # parses as a string and fails the model's range checks).
            except (KeyError, ValueError, TypeError) as error:
                raise ValueError(f"bad fault axis entry {fault!r}: {error}") from None
        for recovery in self.recoveries:
            try:
                RecoveryPolicy.from_string(recovery)
            except (ValueError, TypeError) as error:
                raise ValueError(
                    f"bad recovery axis entry {recovery!r}: {error}"
                ) from None

    def cells(self) -> List[CampaignCell]:
        """The full cross product, in deterministic order."""
        self.validate()
        return [
            CampaignCell(
                scenario=scenario,
                technique=technique,
                scale=scale,
                seed=seed,
                topology=self.topology,
                flow_count=self.flow_count,
                rate_pps=self.rate_pps,
                max_update_duration=self.max_update_duration,
                fault=fault,
                recovery=recovery,
                trace=self.trace,
            )
            for scenario, technique, fault, recovery, scale, seed
            in itertools.product(
                self.scenarios, self.techniques, self.faults, self.recoveries,
                self.scales, self.seeds
            )
        ]
