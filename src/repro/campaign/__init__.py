"""Campaign subsystem: parallel (scenario × technique × fault × scale × seed) sweeps.

The grid (:mod:`repro.campaign.grid`) expands a :class:`CampaignSpec` into
hash-keyed cells, the runner (:mod:`repro.campaign.runner`) executes the
cells its run store lacks across worker processes (resume is a store cache
hit) and writes one JSON line per cell, and the report module
aggregates results with the :mod:`repro.analysis.report` table machinery.
``python -m repro.campaign`` is the command-line entry point.
"""

from repro.campaign.grid import CampaignCell, CampaignSpec
from repro.campaign.report import (
    aggregate,
    render_report,
    resilience,
)
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
    "aggregate",
    "load_records",
    "render_report",
    "resilience",
    "run_cell",
]
