"""Measurement and analysis utilities.

These turn the raw simulation artefacts (delivery records, switch data-plane
apply logs, RUM confirmation logs, executor issue/ack times) into the
quantities the paper reports:

* per-flow *broken time* and the fraction of flows broken for at least a
  given duration (Figure 1b),
* per-flow old-path/new-path switchover times (Figures 6 and 7),
* the activation ledger — per plan operation, data-plane activation against
  RUM's and the controller's acknowledgment — and Figure 8's per-rule
  delays, a projection of it,
* usable rule-update rates (Table 1),
* per-rule lifecycles and the per-switch activation-gap summary
  (:mod:`repro.analysis.timeline`), whose text — with all else ``python -m
  repro show`` prints — :mod:`repro.campaign.report` renders on the
  table primitive of :mod:`repro.analysis.report`.
"""

from repro.analysis.cdf import Distribution, percentile
from repro.analysis.flowstats import (
    FlowUpdateStats,
    broken_time_distribution,
    flow_update_stats,
)
from repro.analysis.activation import ActivationDelays, LedgerRow, activation_ledger
from repro.analysis.report import format_table

__all__ = [
    "ActivationDelays",
    "Distribution",
    "FlowUpdateStats",
    "LedgerRow",
    "activation_ledger",
    "broken_time_distribution",
    "flow_update_stats",
    "format_table",
    "percentile",
]
