#!/usr/bin/env python3
"""Differential run analytics: where exactly do two techniques part ways?

The paper's argument is inherently differential — the same rule update is
safe when acknowledgments are confirmed in the data plane and unsafe when
a timeout merely *assumes* activation.  This example runs the same
``path-migration`` workload under a ``delay-spike`` fault twice — once
with the static-timeout technique (``timeout``), once with RUM's general
probing (``general``) — stores both traced runs in a content-addressed
run store, and diffs them: summary deltas (drops, broken time), per-switch
activation-gap movement, and the **first divergent lifecycle event**,
named with its simulated time, switch and phase.

Equivalent CLI, given two stored runs (one REF alone prints that run's
summary, timeline and fault overlay)::

    python -m repro.store --store runstore show <digestA> <digestB>

Run with::

    python examples/diff_techniques.py [store-directory]

(without a directory the store goes into a fresh temporary one).
"""

import sys
import tempfile
from pathlib import Path
from typing import Optional

from repro.campaign.report import diff_runs, render_run_diff
from repro.scenarios import ScenarioParams, run_scenario
from repro.store import RunStore, RunView

FAULTS = "delay-spike(probability=0.4)"


def traced_run(technique: str):
    params = ScenarioParams(flow_count=4, seed=7, trace=True, faults=FAULTS,
                            max_update_duration=5.0)
    return run_scenario("path-migration", technique, params)


def main(store_root: Optional[Path] = None) -> None:
    left = traced_run("timeout")
    right = traced_run("general")

    # Content-addressed storage: each run is keyed by its outcome digest,
    # so re-running this example re-uses (and re-verifies) the same objects.
    store = RunStore(store_root or Path(tempfile.mkdtemp(prefix="runstore-")))
    left_digest = store.put_record(left.as_dict())
    right_digest = store.put_record(right.as_dict())
    print(f"stored timeout run  -> {left_digest}")
    print(f"stored general run  -> {right_digest}")
    print(f"store verify        -> {store.verify() or 'clean'}")
    print()

    diff = diff_runs(RunView(left.as_dict(), "timeout"),
                     RunView(right.as_dict(), "general"))
    print(render_run_diff(diff))
    print()
    # The one-line verdict: under the delay spike, the timeout technique
    # acks rules the hardware has not activated yet; the first divergence
    # names the switch and phase where the techniques' histories split.
    print(f"verdict: {diff.explain()}")


if __name__ == "__main__":
    main(Path(sys.argv[1]) if len(sys.argv) > 1 else None)
