"""Smoke test of the reference benchmark (tier-1; a few seconds in total).

Runs ``run.py --smoke`` — every workload at 3 calls, timed pass and span pass
in one worker each — and checks the benchmark's own contract: every metric
and workload ``BENCHMARK.json`` names is printed with its unit and nothing
else is, the self-time arithmetic is right, and a wrong golden fails the run.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import spans  # noqa: E402 - sibling module of the benchmark


def run_benchmark(*arguments):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *arguments],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)


def test_smoke_prints_exactly_the_named_metrics():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    named = {entry["name"]: entry["unit"]
             for entry in benchmark["end_to_end"] + benchmark["per_layer"]}
    assert [(e["name"], e["unit"], e["better"]) for e in benchmark["per_layer"]] \
        == list(spans.PER_LAYER)

    done = run_benchmark("--smoke")
    assert done.returncode == 0, done.stdout + done.stderr
    printed = {}
    for line in done.stdout.splitlines():
        if line.startswith("metric "):
            _tag, workload, name, value, unit = line.split()[:5]
            float(value)
            printed.setdefault(workload, {})[name] = unit
    assert set(printed) == {entry["name"] for entry in benchmark["workloads"]}
    for workload, metrics in printed.items():
        assert metrics == named, workload
    assert "failed_share 0 " in done.stdout
    final = json.loads(done.stdout.splitlines()[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] is True and final["failed"] == 0


def test_self_time_is_duration_minus_children():
    # root [0, 10] > a [1, 4], b [5, 9] (siblings); b > c [6, 8]; then a second
    # root [10, 11] with no children.
    starts = [0.0, 1.0, 5.0, 6.0, 10.0]
    ends = [10.0, 4.0, 9.0, 8.0, 11.0]
    parents = [-1, 0, 0, 2, -1]
    own = spans.self_times(starts, ends, parents)
    assert own == [3.0, 3.0, 2.0, 2.0, 1.0]
    assert sum(own) == (10.0 - 0.0) + (11.0 - 10.0)


def test_wrong_golden_fails_the_run(tmp_path):
    workload = "rule-install-controlplane"
    golden = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))
    calls = golden["smoke"][workload]["calls"]
    victim = sorted(calls)[0]
    calls[victim]["digest"] = "0" * 16
    tampered = tmp_path / "golden.json"
    tampered.write_text(json.dumps(golden), encoding="utf-8")

    done = run_benchmark("--smoke", "--workload", workload,
                         "--golden", str(tampered))
    assert done.returncode != 0
    final = json.loads(done.stdout.splitlines()[-1])
    assert final["correct"] is False and final["failed"] > 0
    assert f"FAIL {workload}: call {victim}: expected" in done.stdout
