#!/usr/bin/env python3
"""Fault-injection quickstart: sweep ack-loss probability across techniques.

The paper's point is that acknowledgments cannot be trusted; this example
makes that quantitative.  The same migration workload runs under increasing
barrier-ack loss, once per acknowledgment technique, and the resilience
table shows who still completes the update and at what cost: the barrier
technique stalls as soon as acks go missing, while RUM's general probing —
which confirms rules in the data plane, not on the control channel — keeps
finishing with zero loss.

Equivalent campaign CLI (adds processes-level parallelism and resume)::

    python -m repro.campaign run --scenarios fault-sweep \
        --techniques barrier,general,no-wait \
        --faults 'none,ack-loss(probability=0.25),ack-loss(probability=0.75)'

Run with::

    python examples/fault_sweep.py
"""

from repro.analysis.report import format_table
from repro.campaign.report import RESILIENCE_HEADERS, resilience
from repro.faults import FaultPlan
from repro.scenarios import ScenarioParams, run_scenario

TECHNIQUES = ("barrier", "general", "no-wait")
ACK_LOSS_PROBABILITIES = (0.0, 0.25, 0.5, 1.0)


def main() -> None:
    lines = []
    for probability in ACK_LOSS_PROBABILITIES:
        plan = FaultPlan.from_string(
            f"ack-loss(probability={probability})" if probability else "none")
        for technique in TECHNIQUES:
            record = run_scenario(
                "fault-sweep", technique,
                ScenarioParams(flow_count=6, seed=7, max_update_duration=5.0,
                               faults=plan.to_string()))
            # A results line, labelled by its fault plan as a campaign is.
            lines.append(dict(record.summary(), config={"fault": plan.to_string()},
                              status="ok" if record.completed else "incomplete"))
            print(f"ack-loss p={probability:<5} {technique:8s} "
                  f"completed={str(record.completed):5s} "
                  f"dropped={record.dropped_packets:4d} "
                  f"fault_events={sum(record.fault_events.values())}")

    print()
    print(format_table(
        RESILIENCE_HEADERS,
        resilience(lines),
        title="Correctness under ack loss (fault-sweep scenario, seed 7)",
    ))


if __name__ == "__main__":
    main()
