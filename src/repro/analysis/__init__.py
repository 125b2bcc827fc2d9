"""Measurement and analysis utilities.

These turn the raw simulation artefacts (delivery records, switch data-plane
apply logs, RUM confirmation logs, executor issue/ack times) into the
quantities the paper reports:

* per-flow *broken time* and the fraction of flows broken for at least a
  given duration (Figure 1b),
* per-flow old-path/new-path switchover times (Figures 6 and 7),
* per-rule delay between data-plane activation and control-plane
  acknowledgment (Figure 8),
* usable rule-update rates (Table 1),
* text rendering of tables for the experiment harness and campaign reports.
"""

from repro.analysis.cdf import Distribution, cdf_points, percentile
from repro.analysis.flowstats import (
    FlowUpdateStats,
    broken_time_distribution,
    flow_update_stats,
)
from repro.analysis.activation import ActivationDelays, activation_delays
from repro.analysis.report import format_table

__all__ = [
    "ActivationDelays",
    "Distribution",
    "FlowUpdateStats",
    "activation_delays",
    "broken_time_distribution",
    "cdf_points",
    "flow_update_stats",
    "format_table",
    "percentile",
]
