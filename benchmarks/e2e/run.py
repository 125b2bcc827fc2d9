#!/usr/bin/env python3
"""Reference benchmark: four workloads, end-to-end metrics, per-layer spans.

    python3 benchmarks/e2e/run.py                      # every workload, timed
    python3 benchmarks/e2e/run.py --spans              # + span pass (per layer)
    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1
    python3 benchmarks/e2e/run.py --list               # what would run
    python3 benchmarks/e2e/run.py --repeat 2           # two complete sets
    python3 benchmarks/e2e/run.py --agree A.json B.json
    python3 benchmarks/e2e/run.py --update-golden

Each workload runs as a closed loop with one client in its own fresh,
single-threaded subprocess (``worker.py``), one after another.  Every metric
is printed as ``metric <workload> <name> <value> <unit>``; the last line of
standard output is the machine-readable result of the last workload run.
See README.md next to this file for definitions.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT = HERE / "out"
GOLDEN = HERE / "golden.json"
sys.path.insert(0, str(HERE))

import spans  # noqa: E402 - sibling module, importable once HERE is on the path
from workloads import DEFAULT_SEED, WORKLOADS, config_hash  # noqa: E402

#: Fresh subprocesses that each perform the whole set-up; ``setup_s`` is their
#: median and only the last one goes on to the timed pass.
SETUP_REPEATS = 3
#: Timed calls per run at full scale, so >= 10 samples lie beyond the p90.
MIN_TIMED_CALLS = 110
#: A worker that runs longer than this is killed (the driver allows 180 s).
WORKER_TIMEOUT_S = 170
#: Seconds ``worker.calibrate`` takes on the reference box in a calm spell;
#: times are reported as if it always did.
CAL_REFERENCE_S = 0.0032
#: Calls either side whose calibration samples set a call's local speed.
SPEED_WINDOW = 10


class BenchError(RuntimeError):
    """The benchmark could not produce a result (as opposed to a failed call)."""


def load_benchmark() -> Dict[str, object]:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def git_revision() -> str:
    # The ceiling keeps git from walking out of a checkout that is no repository.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                              env=env, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "nogit"
    return done.stdout.strip() if done.returncode == 0 and done.stdout.strip() else "nogit"


def spawn(workload: str, mode: str, seed: int, seconds: float, smoke: bool,
          min_calls: int = 1, trace_out: Optional[Path] = None) -> Dict[str, object]:
    """Run one worker to completion and return the document it printed."""
    if not (SRC / "repro").is_dir():
        raise BenchError(f"the program under test is missing: {SRC / 'repro'}")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = "0"
    command = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
               "--mode", mode, "--seed", str(seed), "--seconds", str(seconds),
               "--min-calls", str(min_calls),
               "--spawned-at", repr(time.time())]
    if smoke:
        command.append("--smoke")
    if trace_out is not None:
        command += ["--trace-out", str(trace_out)]
    try:
        done = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}/{mode}: worker exceeded "
                         f"{WORKER_TIMEOUT_S} s and was killed") from None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"{workload}/{mode}: worker exited with code "
                         f"{done.returncode}")
    return json.loads(lines[-1])


# -- checking -----------------------------------------------------------------

OUTCOME_KEYS = ("digest", "status", "completed")


def golden_section(smoke: bool) -> str:
    return "smoke" if smoke else "full"


def load_golden(path: Path = GOLDEN) -> Dict[str, object]:
    return json.loads(path.read_text(encoding="utf-8"))


def check_calls(workload: str, seed: int, smoke: bool,
                executions: Iterable[Tuple[str, Dict[str, object]]],
                golden: Dict[str, object]) -> Tuple[int, List[str]]:
    """``(attempted, failure messages)`` over ``(call key, outcome)`` pairs.

    A call fails if it raised or reported ``status: "error"``, or if its
    (digest, status, completed) differs from the golden for the default seed;
    on any other seed, from the first execution of the same distinct call.
    """
    pinned = {}
    if seed == DEFAULT_SEED:
        pinned = {key: tuple(entry[name] for name in OUTCOME_KEYS)
                  for key, entry in
                  golden[golden_section(smoke)][workload]["calls"].items()}
    attempted = 0
    failures: List[str] = []
    first: Dict[str, tuple] = {}
    for key, outcome in executions:
        attempted += 1
        got = tuple(outcome.get(name) for name in OUTCOME_KEYS)
        if outcome.get("status") == "error":
            failures.append(f"{workload}: call {key} failed: "
                            f"{outcome.get('error')}")
            continue
        expected = pinned.get(key) if seed == DEFAULT_SEED else first.setdefault(key, got)
        if expected is None:
            failures.append(f"{workload}: call {key} has no golden entry "
                            "(run --update-golden)")
        elif got != expected:
            failures.append(f"{workload}: call {key}: expected "
                            f"{dict(zip(OUTCOME_KEYS, expected))}, got "
                            f"{dict(zip(OUTCOME_KEYS, got))}")
    return attempted, failures


def executions_of(result: Dict[str, object]) -> List[Tuple[str, Dict[str, object]]]:
    """Every executed call of a worker result: warm-up, timed, span pass."""
    logs = [result.get("warmup"), result.get("calls"),
            (result.get("span_pass") or {}).get("calls")]
    return [(row["key"], row["outcome"]) for log in logs if log for row in log]


def early_acks(result: Dict[str, object]) -> Dict[str, int]:
    """``technique -> rules acked before hardware activation``, each distinct call once."""
    totals: Dict[str, int] = {}
    seen = set()
    for row in result.get("calls") or result["warmup"]:
        outcome = row["outcome"]
        if "early_acks" in outcome and row["key"] not in seen:
            seen.add(row["key"])
            technique = str(outcome.get("technique"))
            totals[technique] = totals.get(technique, 0) + outcome["early_acks"]
    return totals


# -- metrics ------------------------------------------------------------------

def percentile(values: List[float], share: float) -> float:
    """Nearest-rank percentile (the value ``share`` of the samples lie at or below)."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * share)) - 1]


def slowdowns(rows: List[Dict[str, object]]) -> List[float]:
    """How much slower than the reference the box ran around each call.

    The median of the calibration samples of the ``SPEED_WINDOW`` calls
    either side, over :data:`CAL_REFERENCE_S` (a median, because a sample
    that catches a descheduling gap reads 10x and would swamp a mean).  Every reported time is divided by
    it: this box's effective speed drifts by 10-25 % over seconds to minutes,
    and dividing the drift out cuts the run-to-run spread of the time metrics
    to a third (README, "Steadiness").
    """
    samples = [row["cal_s"] for row in rows]
    return [statistics.median(samples[max(0, at - SPEED_WINDOW):at + SPEED_WINDOW + 1])
            / CAL_REFERENCE_S for at in range(len(samples))]


def setup_seconds(result: Dict[str, object]) -> float:
    """One worker's ``setup_s`` at reference speed."""
    samples = result["setup_cal_s"] + [row["cal_s"] for row in result["warmup"]]
    return result["setup_s"] / (statistics.median(samples) / CAL_REFERENCE_S)


def end_to_end(result: Dict[str, object], setups: List[float]) -> Dict[str, Tuple[float, str]]:
    """The end-to-end metrics of one timed pass, times at reference speed."""
    rows = result["calls"]
    slow = slowdowns(rows)
    cells = sum(row["cells"] for row in rows)
    walls = [row["wall_s"] / factor for row, factor in zip(rows, slow)]
    cpu = sum(row["cpu_s"] / factor for row, factor in zip(rows, slow))
    return {
        "cells_per_s": (cells / sum(walls), "cells/s"),
        "cpu_ms_per_cell": (1000.0 * cpu / cells, "ms"),
        "call_ms_p50": (1000.0 * percentile(walls, 0.5), "ms"),
        "call_ms_p90": (1000.0 * percentile(walls, 0.9), "ms"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024.0, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }


def per_layer(result: Dict[str, object]) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric of one span pass, per repetition of the mix."""
    span_pass = result["span_pass"]
    repetitions = span_pass["repetitions"]
    rows = span_pass["calls"]
    cells = sum(row["cells"] for row in rows) / repetitions

    def per_repetition(name: str) -> float:
        return sum(row["outcome"].get(name, 0) for row in rows) / repetitions

    def wall_per_repetition(log: List[Dict[str, object]], count: int) -> float:
        return sum(row["wall_s"] / factor
                   for row, factor in zip(log, slowdowns(log))) / count

    sums = {name: per_repetition(name) for name in
            ("early_acks", "fault_events", "resyncs", "rules_reinstalled")}
    sums.update(result["extras"])
    sums["span_overhead_ratio"] = (
        wall_per_repetition(rows, repetitions)
        / wall_per_repetition(result["calls"], result["repetitions"]))
    values = spans.layer_metrics(span_pass["spans"], span_pass["tallies"],
                                 repetitions, cells, sums)
    return {name: (values[name], unit) for name, unit, _better in spans.PER_LAYER}


# -- one workload ---------------------------------------------------------------

def result_stem(workload: str, seed: int, seconds: float, smoke: bool,
                revision: str, trace: bool, repeat: int) -> str:
    stem = f"{workload}-{config_hash(workload, seed, seconds, smoke)}-{revision}"
    if repeat:
        stem += f"-r{repeat}"
    return stem + ("-spans" if trace else "")


def run_workload(workload: str, seed: int, seconds: float, smoke: bool,
                 trace: bool, revision: str, golden: Dict[str, object],
                 repeat: int = 0) -> Dict[str, object]:
    """Run one workload, print its metrics, write its result file."""
    stem = result_stem(workload, seed, seconds, smoke, revision, trace, repeat)
    problems: List[str] = []
    metrics: Dict[str, Tuple[float, str]] = {}
    if trace or smoke:
        # Smoke scale: one worker per workload yields both metric sets.
        result = spawn(workload, "spans", seed, seconds / 2.0, smoke,
                       min_calls=3 if smoke else 1,
                       trace_out=OUT / f"{stem}.trace.json")
        setups = [setup_seconds(result)]
    else:
        setups = [setup_seconds(spawn(workload, "setup", seed, 0.0, smoke))
                  for _ in range(SETUP_REPEATS - 1)]
        result = spawn(workload, "timed", seed, seconds, smoke,
                       min_calls=MIN_TIMED_CALLS)
        setups.append(setup_seconds(result))
    result["setup_samples_s"] = setups
    if not trace:
        metrics.update(end_to_end(result, setups))
    if trace or smoke:
        layer_values = per_layer(result)
        metrics.update(layer_values)
        problems += result["span_pass"]["problems"]
        covered = sum(value for name, (value, _unit) in layer_values.items()
                      if name.endswith(".self_s"))
        span_wall = sum(row["wall_s"] for row in result["span_pass"]["calls"]) \
            / result["span_pass"]["repetitions"]
        if covered > span_wall:
            problems.append(f"{workload}: layer self times sum to {covered:.4f} s, "
                            f"more than the span pass's {span_wall:.4f} s")
    attempted, failures = check_calls(workload, seed, smoke,
                                      executions_of(result), golden)
    expected = golden[golden_section(smoke)][workload].get("early_ack_rules")
    if seed == DEFAULT_SEED and expected is not None and early_acks(result) != expected:
        problems.append(f"{workload}: core.early_ack_rules per technique: "
                        f"expected {expected}, got {early_acks(result)}")
    document = {
        "workload": workload, "seed": seed, "seconds": seconds, "smoke": smoke,
        "trace": trace, "commit": revision, "python": platform.python_version(),
        "nproc": os.cpu_count(), "scratch": "disk, inside the checkout",
        "attempted": attempted, "failed": len(failures),
        "failed_share": len(failures) / attempted,
        "correct": not failures and not problems,
        "failures": failures, "problems": problems,
        "timed_calls": len(result["calls"]), "repetitions": result["repetitions"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
        "worker": result,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{stem}.json").write_text(json.dumps(document, indent=1),
                                      encoding="utf-8")
    print_workload(document)
    print(f"result {workload} {OUT.relative_to(ROOT) / (stem + '.json')}")
    return document


def print_workload(document: Dict[str, object]) -> None:
    workload = document["workload"]
    print(f"workload {workload}: {WORKLOADS[workload].why}")
    print(f"  call = {WORKLOADS[workload].call}; {document['timed_calls']} timed "
          f"calls in {document['repetitions']} repetitions, seed "
          f"{document['seed']}, scratch on {document['scratch']}")
    samples = f"n={document['timed_calls']}"
    for name, entry in document["metrics"].items():
        note = f"  {samples}" if name.startswith("call_ms_") else ""
        print(f"metric {workload} {name} {entry['value']:.6g} {entry['unit']}{note}")
    print(f"check {workload} failed_share {document['failed_share']:.6g} "
          f"({document['failed']} of {document['attempted']} calls)")
    for message in document["failures"] + document["problems"]:
        print(f"FAIL {message}")
    if "span_pass" in document["worker"]:
        print_layer_table(document)


def print_layer_table(document: Dict[str, object]) -> None:
    """Per-layer self time, share of the span pass's wall, calls, cost per call."""
    span_pass = document["worker"]["span_pass"]
    repetitions = span_pass["repetitions"]
    layers: Dict[str, List[float]] = {}
    for entry in span_pass["spans"].values():
        row = layers.setdefault(entry["layer"], [0.0, 0])
        row[0] += entry["self_s"] / repetitions
        row[1] += entry["calls"] / repetitions
    wall = sum(row[0] for row in layers.values())
    print(f"  {'layer':<11}{'self s':>10}{'share':>8}{'calls':>11}{'us/call':>11}")
    for layer, (seconds, calls) in sorted(layers.items(),
                                          key=lambda item: -item[1][0]):
        if calls:
            print(f"  {layer:<11}{seconds:>10.4f}{seconds / wall:>8.1%}"
                  f"{calls:>11.0f}{1e6 * seconds / calls:>11.2f}")


def final_line(document: Dict[str, object]) -> str:
    """The one JSON object the driver reads from the last line of stdout."""
    return json.dumps({name: document[name] for name in
                       ("correct", "attempted", "failed", "metrics")})


# -- modes ----------------------------------------------------------------------

def list_workloads(names: List[str], seed: int, seconds: float, smoke: bool) -> None:
    """What would run: no worker is started, nothing is simulated."""
    if SRC.is_dir():
        sys.path.insert(0, str(SRC))
    for name in names:
        workload = WORKLOADS[name]
        calls = workload.distinct_calls(seed, smoke)
        repetitions = max(-(-MIN_TIMED_CALLS // len(calls)),
                          round(seconds / workload.nominal_repetition_s + 0.5))
        print(f"{name}: {len(calls)} distinct calls x ~{repetitions} repetitions "
              f"= ~{len(calls) * repetitions} timed calls; expect "
              f"~{repetitions * workload.nominal_repetition_s:.0f} s timed + "
              f"{SETUP_REPEATS} x ~{workload.nominal_setup_s:.1f} s set-up; "
              f"config {config_hash(name, seed, seconds, smoke)}")
        print(f"  call = {workload.call}")
        print(f"  why: {workload.why}")


def update_golden(smoke_only: bool) -> None:
    golden = load_golden() if GOLDEN.exists() else {}
    for smoke in ((True,) if smoke_only else (False, True)):
        section = golden.setdefault(golden_section(smoke), {})
        for name in WORKLOADS:
            result = spawn(name, "golden", DEFAULT_SEED, 0.0, smoke)
            entry = {"calls": {
                row["key"]: {field: row["outcome"].get(field) for field in OUTCOME_KEYS}
                for row in result["warmup"]}}
            early = early_acks(result)
            if early:
                entry["early_ack_rules"] = early
            section[name] = entry
            print(f"golden {golden_section(smoke)} {name}: "
                  f"{len(entry['calls'])} calls pinned")
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")


def load_set(path: Path) -> Dict[str, Dict[str, object]]:
    """``workload[+spans] -> result document`` from a set file or one result."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    documents = payload["results"] if "results" in payload else [payload]
    return {document["workload"] + ("+spans" if document["trace"] else ""): document
            for document in documents}


def agree(first: Path, second: Path) -> bool:
    """Compare two sets of runs against the benchmark's own bounds."""
    bounds = {entry["name"]: entry["bound"]
              for entry in load_benchmark()["end_to_end"]}
    counts = {name for name, unit, _better in spans.PER_LAYER if unit == "count"}
    left, right = load_set(first), load_set(second)
    fine = True
    for key in sorted(set(left) | set(right)):
        if key not in left or key not in right:
            print(f"{key}: present in only one of the two sets")
            fine = False
            continue
        for name, entry in left[key]["metrics"].items():
            a, b = entry["value"], right[key]["metrics"][name]["value"]
            if name in bounds:
                difference = (b - a) / a
                verdict = "ok" if abs(difference) <= bounds[name] else "exceeds"
                print(f"{key:<34}{name:<18}{a:>12.5g}{b:>12.5g} {entry['unit']:<8}"
                      f"{difference:>+8.2%} bound {bounds[name]:.0%} {verdict}")
                fine &= verdict == "ok"
            elif name in counts and a != b:
                print(f"{key:<34}{name:<18}{a:>12.5g}{b:>12.5g} count differs")
                fine = False
    print("agree" if fine else "DISAGREE")
    return fine


def main(argv: Optional[List[str]] = None) -> int:
    benchmark = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        help="how long one timed pass measures (default: "
                             "BENCHMARK.json's run_seconds; 0 with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: span pass, per-layer metrics")
    parser.add_argument("--spans", action="store_true", help="same as --trace 1")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny scale: 3 calls per workload")
    parser.add_argument("--list", "--dry-run", action="store_true", dest="list")
    parser.add_argument("--repeat", type=int, default=0, metavar="N",
                        help="N complete sets (timed + spans), one set file each")
    parser.add_argument("--agree", nargs=2, type=Path, metavar=("A", "B"))
    parser.add_argument("--update-golden", action="store_true")
    parser.add_argument("--golden", type=Path, default=GOLDEN,
                        help="golden file to check against")
    args = parser.parse_args(argv)
    names = [args.workload] if args.workload else [
        entry["name"] for entry in benchmark["workloads"]]
    trace = bool(args.trace or args.spans)
    if args.seconds is None:
        args.seconds = 0.0 if args.smoke else float(benchmark["run_seconds"])

    if args.agree:
        return 0 if agree(*args.agree) else 1
    if args.list:
        list_workloads(names, args.seed, args.seconds, args.smoke)
        return 0
    try:
        if args.update_golden:
            update_golden(args.smoke)
            return 0
        golden = load_golden(args.golden)
        revision = git_revision()
        documents = []
        for repeat in range(1, args.repeat + 1) if args.repeat else (0,):
            batch = [run_workload(name, args.seed, args.seconds, args.smoke,
                                  traced, revision, golden, repeat)
                     for traced in ((False, True) if args.repeat else (trace,))
                     for name in names]
            if args.repeat:
                path = OUT / f"set-{revision}-seed{args.seed}-r{repeat}.json"
                path.write_text(json.dumps({"results": batch}), encoding="utf-8")
                print(f"set {path.relative_to(ROOT)}")
            documents += batch
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(final_line(documents[-1]))
    return 0 if all(document["correct"] for document in documents) else 1


if __name__ == "__main__":
    sys.exit(main())
