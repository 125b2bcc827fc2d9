#!/usr/bin/env python3
"""Recovery quickstart: a rolling crash wave with and without recovery.

A staggered switch-crash wave rolls through pod 0 of a fat-tree — the
shape of a rolling upgrade gone wrong — while a path migration is in
flight.  Every technique runs the same outage twice: once with the
controller-side recovery subsystem armed (shadow-table resync on reconnect
plus retransmission of un-acked FlowMods) and once without.  The resilience
table's `recovered`/`reinstalled` columns then show the headline: with
recovery on, every wiped rule is reinstalled and post-restart packet loss
collapses; with recovery off, restored switches forward nothing ever again.

Equivalent campaign CLI (adds process-level parallelism and resume)::

    python -m repro.campaign run --scenarios rolling-upgrade \
        --techniques barrier,general,no-wait \
        --faults 'rolling(switch-crash(restart_after=0.2)@pod:0,stagger=0.15,at=0.4)' \
        --recovery 'off,on'

Run with::

    python examples/rolling_outage.py
"""

from repro.analysis.report import format_table
from repro.campaign.report import RESILIENCE_HEADERS, resilience
from repro.scenarios import ScenarioParams, run_scenario

TECHNIQUES = ("barrier", "general", "no-wait")
RECOVERY_MODES = ("off", "on")


def main() -> None:
    lines = []
    for technique in TECHNIQUES:
        for recovery in RECOVERY_MODES:
            record = run_scenario(
                "rolling-upgrade", technique,
                ScenarioParams(flow_count=6, seed=7, recovery=recovery))
            # A results line whose fault label names the recovery mode on
            # both rows of a pair.
            label = f"{record.metrics['fault_plan']} +recovery={recovery}"
            lines.append(dict(record.summary(), config={"fault": label},
                              status="ok" if record.completed else "incomplete"))
            report = record.recovery
            print(f"{technique:8s} recovery={recovery:3s} "
                  f"dropped={record.dropped_packets:5d} "
                  f"reinstalled={report.get('rules_reinstalled', 0):3d} "
                  f"reconverged={report.get('reconverged', '-')}")

    print()
    print(format_table(
        RESILIENCE_HEADERS,
        resilience(lines),
        title="Rolling pod-0 crash wave — recovery on vs off (seed 7)",
    ))


if __name__ == "__main__":
    main()
