#!/usr/bin/env python3
"""Scenario & campaign quickstart.

Runs one scenario directly through the engine, then sweeps a small
(scenario x technique x seed) grid through the parallel campaign runner and
prints the aggregated report.  Equivalent CLI::

    python -m repro list
    python -m repro run --scenarios path-migration,link-failure \
        --techniques barrier,general --seeds 1,2 --out /tmp/demo.jsonl

Run with::

    python examples/scenario_campaign.py [results.jsonl]
"""

import sys
from pathlib import Path

from repro.campaign import CampaignRunner, CampaignSpec
from repro.campaign.report import render_report
from repro.scenarios import ScenarioParams, available_scenarios, run_scenario
from repro.store import RunStore


def _fmt(seconds) -> str:
    """Format an optional duration (None when a run missed its deadline)."""
    return f"{seconds:.3f}s" if seconds is not None else "n/a"


def main(results_path: Path) -> None:
    print("registered scenarios:", ", ".join(available_scenarios()))

    print("\n-- single run: path migration on a generated fat-tree --")
    params = ScenarioParams(topology="fat-tree", scale=1, flow_count=8)
    for technique in ("barrier", "general"):
        result = run_scenario("path-migration", technique, params)
        print(f"{technique:8s} duration={_fmt(result.update_duration)} "
              f"dropped={result.dropped_packets} "
              f"mean_update={_fmt(result.mean_update_time)}")

    print("\n-- campaign: 2 scenarios x 2 techniques x 2 seeds --")
    spec = CampaignSpec(
        scenarios=["path-migration", "link-failure"],
        techniques=["barrier", "general"],
        seeds=[1, 2],
        flow_count=6,
    )
    store = RunStore(results_path.parent / "runstore")
    outcome = CampaignRunner(spec, results_path, cache=store).run(progress=print)
    print(f"\nran {outcome.ran}, cached {outcome.cached} "
          f"(re-running this script resumes from the run store {store.root})")
    print()
    print(render_report(results_path))


if __name__ == "__main__":
    main(Path(sys.argv[1]) if len(sys.argv) > 1 else Path("scenario-campaign.jsonl"))
