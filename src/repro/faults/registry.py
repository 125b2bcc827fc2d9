"""The catalogue of fault models.

Mirrors the acknowledgment-technique catalogue
(:mod:`repro.core.techniques.registry`): a fault is its class, not a string
every layer interprets on its own.  Every
:class:`~repro.faults.base.FaultModel` subclass whose own body sets ``name``
is in :data:`FAULTS` from the moment it is defined, and the class carries
the layer it attaches to and its parameter defaults, so a fault defined once
is immediately sweepable from every entry point — sessions
(``SessionSpec.faults``), scenarios (``ScenarioParams.faults``) and campaign
grids (``CampaignSpec.faults``).

Adding a fault model is defining a subclass with a ``name``::

    from repro.faults.base import DataPlaneFault

    class GhostRuleFault(DataPlaneFault):
        \"\"\"Silently drop every Nth rule on its way to the data plane.\"\"\"

        name = "ghost-rule"
        param_defaults = {"every": 10}

Registration is per-process, exactly like technique registration: parallel
campaign workers only see faults whose defining module they import.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Type

from repro.registry import Registry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.base import FaultModel

#: Fault name -> :class:`~repro.faults.base.FaultModel` subclass.
FAULTS = Registry("fault")


def get_fault(name: str) -> Type["FaultModel"]:
    """Look a fault model class up by name (``KeyError`` on unknown names)."""
    return FAULTS[name]


def available_faults(layer: Optional[str] = None) -> List[str]:
    """Registered fault names, sorted; optionally restricted to one layer."""
    return sorted(name for name, cls in FAULTS.items()
                  if layer is None or cls.layer == layer)
