"""Exact event counts of the reference benchmark's smoke mix.

``sim.steps_executed`` and ``obs.trace_events`` of ``run.py --smoke`` are
deterministic, so these gates do not depend on the machine's speed.  They live
outside ``benchmarks/e2e/`` on purpose: a change that means to remove or add
kernel events edits its gate in the same commit, and says why.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def smoke_metrics():
    """``{(workload, metric): value}`` of one ``run.py --smoke``."""
    done = subprocess.run([sys.executable, "benchmarks/e2e/run.py", "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    metrics = {}
    for line in done.stdout.splitlines():
        if line.startswith("metric "):
            _tag, workload, name, value = line.split()[:4]
            metrics[workload, name] = float(value)
    return metrics


# The counts are exact (!=, not a ceiling: fewer steps is a changed event
# stream too) and were moved here deliberately, from 5567 / 3345 / 7328, by
# the change that made a switch hop one heap entry (the link schedules a
# packet for the end of the receiver's ingress delay; no arrival event that
# only waits).  An idle switch must not poll.  ``outage-traced`` moved again,
# from 4886, when traced runs stopped sampling gauges every 10 ms of simulated
# time: a traced cell now executes exactly the steps of its bare twin.
@pytest.mark.parametrize("workload, steps", [
    ("migration-dataplane", 3419),
    ("rule-install-controlplane", 2923),
    ("outage-traced", 4273),
])
def test_the_smoke_mix_executes_exactly_these_kernel_steps(smoke_metrics, workload, steps):
    assert smoke_metrics[workload, "sim.steps_executed"] == steps


def test_the_armed_tracer_records_exactly_these_events(smoke_metrics):
    # A faster trace pipeline records the same events; the work side of the
    # promise (C-encoded shards, no kernel step of the tracer's own) is
    # counted by tests/unit/test_work_guards.py.
    assert smoke_metrics["outage-traced", "obs.trace_events"] == 812
