#!/usr/bin/env python3
"""Sweep the sequential-probing overhead trade-off (cf. Table 1).

The controller performs a burst of rule modifications on the hardware switch
with a bounded number of unconfirmed modifications (K); RUM updates its probe
rule after every N real modifications.  Larger N amortises the probing
overhead (higher usable rate) at the price of coarser, later confirmations —
this script prints both sides of that trade-off, plus the general-probing
numbers for comparison.

Run with::

    python examples/probe_overhead_sweep.py [rule_count]
"""

import sys

from repro.analysis.report import format_table
from repro.experiments.common import RuleInstallParams, run_rule_install
from repro.experiments.figures import PROBE_FREQUENCIES


def main(rule_count: int = 400) -> None:
    params = RuleInstallParams(rule_count=rule_count, max_unconfirmed=50)
    print(f"installing {rule_count} rules with at most {params.max_unconfirmed} unconfirmed ...")
    barrier = run_rule_install("barrier", params)
    rows = []
    for batch in PROBE_FREQUENCIES:
        result = run_rule_install(
            "sequential", params.scaled(rum_overrides={"probe_batch": batch})
        )
        summary = result.activation.summary()
        rows.append([
            f"sequential, probe after {batch}",
            f"{result.usable_rate:.0f}",
            f"{100 * result.usable_rate / barrier.usable_rate:.0f}%",
            result.rum_probe_rule_updates,
            f"{summary.p90 * 1000:.0f}",
            result.activation.negative_count,
        ])
    general = run_rule_install("general", params)
    rows.append([
        "general probing",
        f"{general.usable_rate:.0f}",
        f"{100 * general.usable_rate / barrier.usable_rate:.0f}%",
        0,
        f"{general.activation.summary().p90 * 1000:.0f}",
        general.activation.negative_count,
    ])
    rows.append([
        "barriers (unsafe reference)",
        f"{barrier.usable_rate:.0f}",
        "100%",
        0,
        f"{barrier.activation.summary().p90 * 1000:.0f}",
        barrier.activation.negative_count,
    ])
    print()
    print(format_table(
        ["configuration", "usable rate [mods/s]", "vs barriers",
         "probe rule updates", "p90 ack delay [ms]", "rules acked early"],
        rows,
        title="Probing overhead vs acknowledgment quality (cf. Table 1 / Figure 8)",
    ))


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 400)
