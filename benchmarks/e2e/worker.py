"""One workload, in this (fresh, single-threaded) process.

``run.py`` starts this file as a subprocess per workload and reads one JSON
document from the last line of its standard output.  Modes:

``setup``   set-up only (imports, call list, cold campaign, warm-up pass)
``timed``   set-up, then the closed-loop timed pass — nothing is patched
``spans``   set-up, a shorter timed pass, then the span pass under wrappers
``golden``  every distinct call once, outcomes only
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import os
import random
import resource
import shutil
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import spans
from workloads import WORKLOADS, Call, Context, Workload

OUT = Path(__file__).resolve().parent / "out"

#: Spans the Chrome-trace sample keeps (the arrays keep all of them).
TRACE_SAMPLE_SPANS = 20000
#: The span pass repeats the mix until it has made this many calls.
SPAN_PASS_MIN_CALLS = 20


#: The calibration kernel's fixed inputs: an event heap's worth of tuples.
_CAL_EVENTS = [((index * 7919 % 1000) * 0.001, index, None, ())
               for index in range(4000)]


class _CalProbe:
    __slots__ = ("first", "second", "third")

    def __init__(self, first, second, third) -> None:
        self.first = first
        self.second = second
        self.third = third

    def hop(self, value):
        return self.first + value


def calibrate() -> float:
    """Seconds a fixed, simulator-shaped piece of work takes right now.

    Taken before every call: this box's effective speed drifts by 10-25 %
    over seconds to minutes (a shared host; no steal time is reported), and
    ``run.py`` divides that drift out of every time it reports.  The kernel
    is the benchmark's own code, never the program's: heap pushes and pops
    of event tuples, dict writes, small slotted objects and method calls.
    That mix tracks how much the neighbours slow the program far better than
    plain arithmetic does (same-code 4-repetition totals, IQR/median:
    raw 9.6 % and 25.6 %, arithmetic-normalised 4.8 % and 8.8 %, this kernel
    2.8 % and 3.3 %, on outage-traced and rule-install-controlplane).
    """
    started = time.perf_counter()
    heap: list = []
    push, pop = heapq.heappush, heapq.heappop
    for event in _CAL_EVENTS:
        push(heap, event)
    latest = {}
    while heap:
        when, index, _callback, _args = pop(heap)
        latest[index & 255] = when
    hops = []
    for value in range(5000):
        hops.append(_CalProbe(value, value + 1, None).hop(value))
    return time.perf_counter() - started


def execute(workload: Workload, call: Call, ctx: Context, invoke=None) -> Dict[str, object]:
    """One call, as a log row; a raise becomes an error outcome."""
    run = workload.run
    speed = calibrate()
    cpu_started = time.process_time()
    started = time.perf_counter()
    try:
        raw = run(call, ctx) if invoke is None else invoke(run, call, ctx)
        error = None
    except Exception as exc:  # noqa: BLE001 - a failed call is a counted outcome
        error = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - started
    cpu = time.process_time() - cpu_started
    if error is None:
        outcome = workload.outcome(call, raw, ctx)
    else:
        outcome = {"digest": None, "status": "error", "completed": False,
                   "error": error}
    return {"key": call.key, "cells": call.cells, "wall_s": wall, "cpu_s": cpu,
            "cal_s": speed, "outcome": outcome}


def run_pass(workload: Workload, calls: List[Call], ctx: Context, seed: int,
             label: str, seconds: float, min_calls: int, invoke=None):
    """Whole shuffled repetitions of the mix until both bounds are met.

    Returns ``(repetitions, rows)``, the rows in execution order.
    """
    rows: List[Dict[str, object]] = []
    repetitions = 0
    started = time.perf_counter()
    while True:
        order = list(calls)
        random.Random(f"{workload.name}:{seed}:{label}:{repetitions}").shuffle(order)
        rows += [execute(workload, call, ctx, invoke) for call in order]
        repetitions += 1
        if (time.perf_counter() - started >= seconds
                and len(rows) >= min_calls):
            return repetitions, rows


def span_pass(workload: Workload, calls: List[Call], ctx: Context, seed: int,
              trace_out: Optional[Path]) -> Dict[str, object]:
    recorder = spans.SpanRecorder()
    gc.collect()
    recorder.install()
    try:
        repetitions, rows = run_pass(
            workload, calls, ctx, seed, "spans", 0.0,
            1 if ctx.smoke else SPAN_PASS_MIN_CALLS, invoke=recorder.call)
    finally:
        recorder.uninstall()
    totals = spans.aggregate(recorder)
    problems = spans.check_fired(workload.name, workload.layers, totals)
    for name, entry in totals.items():
        if entry["calls"] % repetitions:
            problems.append(f"span {name}: {entry['calls']} calls do not divide "
                            f"into {repetitions} identical repetitions")
    if trace_out is not None:
        from repro.obs.export import validate_chrome_trace

        payload = spans.chrome_trace(recorder, TRACE_SAMPLE_SPANS)
        reason = validate_chrome_trace(payload)
        if reason is not None:
            problems.append(f"span trace export is malformed: {reason}")
        trace_out.parent.mkdir(parents=True, exist_ok=True)
        trace_out.write_text(json.dumps(payload), encoding="utf-8")
    return {"repetitions": repetitions, "calls": rows, "spans": totals,
            "tallies": recorder.tallies, "problems": problems,
            "spans_recorded": len(recorder.name_ids)}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--mode", required=True,
                        choices=("setup", "timed", "spans", "golden"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--min-calls", type=int, default=1)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--spawned-at", type=float, default=None,
                        help="time.time() of the parent just before the spawn")
    parser.add_argument("--trace-out", type=Path, default=None)
    args = parser.parse_args(argv)
    spawned_at = args.spawned_at if args.spawned_at is not None else time.time()

    workload = WORKLOADS[args.workload]
    tmp = OUT / "tmp" / f"{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    ctx = Context(tmp=tmp, smoke=args.smoke)
    result: Dict[str, object] = {"workload": workload.name, "mode": args.mode}
    try:
        # Speed samples bracket the set-up (each warm-up call adds its own).
        result["setup_cal_s"] = [calibrate() for _ in range(3)]
        calls = workload.distinct_calls(args.seed, args.smoke)
        result["extras"] = workload.setup(ctx, calls)
        todo = calls if args.mode == "golden" else workload.warmup_calls(calls)
        result["warmup"] = [execute(workload, call, ctx) for call in todo]
        result["setup_cal_s"] += [calibrate() for _ in range(3)]
        gc.collect()
        # Everything up to the first timed call, interpreter start included.
        result["setup_s"] = time.time() - spawned_at
        if args.mode in ("timed", "spans"):
            pass_started = time.perf_counter()
            result["repetitions"], result["calls"] = run_pass(
                workload, calls, ctx, args.seed, "timed", args.seconds,
                args.min_calls)
            result["pass_wall_s"] = time.perf_counter() - pass_started
            result["peak_rss_kb"] = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss
        if args.mode == "spans":
            result["span_pass"] = span_pass(workload, calls, ctx, args.seed,
                                            args.trace_out)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
