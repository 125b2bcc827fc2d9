"""Campaign subsystem: parallel (scenario × technique × fault × scale × seed) sweeps.

The grid (:mod:`repro.campaign.grid`) expands a :class:`CampaignSpec` into
hash-keyed cells, the runner (:mod:`repro.campaign.runner`) executes the
cells its run store lacks across worker processes (resume is a store cache
hit) and writes one JSON line per cell, and :mod:`repro.campaign.report`
renders every text view of runs and results; it is imported from there,
because it reads the run store, which a worker process never loads.
``python -m repro run`` / ``status`` drive it from the command line.
"""

from repro.campaign.grid import CampaignCell, CampaignSpec
from repro.campaign.runner import (
    CampaignOutcome,
    CampaignRunner,
    load_records,
    run_cell,
)

__all__ = [
    "CampaignCell",
    "CampaignOutcome",
    "CampaignRunner",
    "CampaignSpec",
    "load_records",
    "run_cell",
]
