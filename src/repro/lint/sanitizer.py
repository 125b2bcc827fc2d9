"""The runtime determinism sanitizer.

The static rules catch the *patterns* that break reproducibility; this
module catches the breakage itself — and, unlike the after-the-fact digest
pins, it names the culprit.  A sanitized run executes a
:class:`~repro.session.spec.SessionSpec` with a recorder in its simulator's
event-tap slot (``sim.observer``, passed as ``spec.run(observer=...)``)
recording every dispatched callback as ``(time, callback-name, payload)``.
Running the same spec twice under the same seed must produce identical
streams; on divergence the report shows the **first divergent simulator
event** — simulated time, callback, payload, side by side — instead of just
"digests differ".

Two extra probes close the gaps a same-process double run cannot see:

* the **wall-clock tripwire** patches ``time.time``/``perf_counter``/
  ``monotonic`` (and their ``_ns`` forms) for the duration of the run, so
  any wall-clock read inside the simulation fails loudly at its call site;
* the **hashseed probe** replays the run in two subprocesses pinned to
  different ``PYTHONHASHSEED`` values and diffs their streams — the only
  way to surface hash-derived values (the ``SeededRandom.fork`` bug
  class), which are perfectly stable *within* one interpreter.

The self-tests in ``tests/unit/test_lint.py`` inject the bugs these probes
catch.

Event payloads are described structurally (type names, ``.name``
attributes) rather than via ``repr`` — default reprs embed addresses and
OpenFlow xids come from a process-global counter, either of which would
make every honest double run "diverge".
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

#: One recorded kernel event: (sim time, callback name, payload description).
EventTuple = Tuple[float, str, str]

#: Distinct interpreter hash seeds used by the subprocess probe.
HASHSEED_PROBE_SEEDS = (101, 202)

#: Hard cap on recorded events per run — a sanitizer run is a small smoke
#: scenario; hitting the cap means the spec is too big for stream diffing.
MAX_RECORDED_EVENTS = 2_000_000


class WallClockLeakError(RuntimeError):
    """A wall-clock read happened inside a sanitized simulation run."""


# -- event description --------------------------------------------------------

def _callback_name(callback: Callable) -> str:
    """A process-stable name for a kernel callback."""
    owner = getattr(callback, "__self__", None)
    plain = getattr(callback, "__name__", type(callback).__name__)
    if owner is None:
        return getattr(callback, "__qualname__", plain)
    label = f"{type(owner).__name__}.{plain}"
    owner_name = getattr(owner, "name", None)
    if isinstance(owner_name, str) and owner_name:
        label = f"{label}@{owner_name}"
    return label


def _describe(value: object, depth: int = 0) -> str:
    """A process-stable, xid-free description of one callback argument."""
    if value is None or isinstance(value, (bool, int)):
        return repr(value)
    if isinstance(value, float):
        return format(value, ".9g")
    if isinstance(value, str):
        return repr(value[:48])
    if isinstance(value, (tuple, list)) and depth < 2:
        inner = ", ".join(_describe(item, depth + 1) for item in value[:4])
        suffix = ", ..." if len(value) > 4 else ""
        return f"[{inner}{suffix}]"
    name = getattr(value, "name", None)
    if isinstance(name, str) and name:
        return f"{type(value).__name__}({name})"
    return type(value).__name__


def _describe_args(args: tuple) -> str:
    return ", ".join(_describe(arg) for arg in args)


# -- wall-clock tripwire ------------------------------------------------------

_TRIPWIRE_NAMES = ("time", "time_ns", "monotonic", "monotonic_ns",
                   "perf_counter", "perf_counter_ns")


class wall_clock_tripwire:
    """Context manager: any ``time.*`` clock read raises inside the block."""

    def __init__(self) -> None:
        self._saved: Dict[str, Callable] = {}

    def __enter__(self) -> "wall_clock_tripwire":
        def _make_trap(name: str) -> Callable:
            def _trap(*_args, **_kwargs):
                raise WallClockLeakError(
                    f"time.{name}() was called inside a sanitized simulation "
                    "run; simulation code must read Simulator.now (wall "
                    "clocks differ run to run, so any dependence on them is "
                    "a determinism bug)"
                )
            return _trap

        for name in _TRIPWIRE_NAMES:
            self._saved[name] = getattr(time, name)
            setattr(time, name, _make_trap(name))
        return self

    def __exit__(self, *exc_info) -> None:
        for name, original in self._saved.items():
            setattr(time, name, original)


# -- recording ----------------------------------------------------------------

@dataclass
class RecordedRun:
    """One run's digest plus its recorded kernel event stream."""

    digest: str
    events: List[EventTuple]
    summary: Dict[str, object] = field(default_factory=dict)


def _reset_process_counters() -> None:
    """Rewind the process-global id counters to their fresh-process state.

    Xids, flow-entry ids and operation ids come from module-level
    ``itertools.count(1)`` counters: deterministic *per process*, but a
    second in-process run starts where the first left off.  Resetting them
    makes consecutive recorded runs byte-comparable — exactly what two
    fresh processes would produce — without touching any digest-bearing
    state.
    """
    import itertools

    from repro.controller import update_plan
    from repro.openflow import flowtable, messages
    from repro.switches import controlplane

    messages._xid_counter = itertools.count(1)
    flowtable._entry_ids = itertools.count(1)
    controlplane._op_ids = itertools.count(1)
    update_plan._operation_ids = itertools.count(1)


def record_session(spec) -> RecordedRun:
    """Run ``spec`` once, tripwired, with the recorder as its event tap."""
    _reset_process_counters()
    events: List[EventTuple] = []
    append = events.append

    def _observer(ts: float, callback: Callable, args: tuple) -> None:
        if len(events) >= MAX_RECORDED_EVENTS:
            raise RuntimeError(
                f"sanitized run exceeded {MAX_RECORDED_EVENTS} events; "
                "sanitize a smaller scenario (fewer flows, shorter window)"
            )
        append((ts, _callback_name(callback), _describe_args(args)))

    with wall_clock_tripwire():
        record = spec.run(observer=_observer)
    return RecordedRun(digest=record.digest(), events=events,
                       summary={"completed": record.completed,
                                "plan_size": record.plan_size})


# -- diffing ------------------------------------------------------------------

@dataclass
class Divergence:
    """The first point two recorded event streams disagree."""

    index: int
    left: Optional[EventTuple]
    right: Optional[EventTuple]

    def render(self, left_label: str = "run 1",
               right_label: str = "run 2") -> str:
        def _side(label: str, event: Optional[EventTuple]) -> str:
            if event is None:
                return f"  {label}: <stream ended>"
            ts, name, detail = event
            payload = f" [{detail}]" if detail else ""
            return f"  {label}: t={ts:.9f} {name}{payload}"

        return "\n".join([
            f"first divergent simulator event at index {self.index}:",
            _side(left_label, self.left),
            _side(right_label, self.right),
        ])


def first_divergence(left: List[EventTuple],
                     right: List[EventTuple]) -> Optional[Divergence]:
    """The first index where two event streams differ, or ``None``."""
    for index, (a, b) in enumerate(zip(left, right)):
        if a != b:
            return Divergence(index=index, left=a, right=b)
    if len(left) != len(right):
        index = min(len(left), len(right))
        return Divergence(
            index=index,
            left=left[index] if index < len(left) else None,
            right=right[index] if index < len(right) else None,
        )
    return None


# -- the sanitizer ------------------------------------------------------------

@dataclass
class SanitizeReport:
    """Outcome of a sanitizer pass over one scenario/spec."""

    scenario: str
    technique: str
    seed: int
    digests: List[str] = field(default_factory=list)
    event_counts: List[int] = field(default_factory=list)
    divergence: Optional[Divergence] = None
    wall_clock_leak: Optional[str] = None
    hashseed_digests: List[str] = field(default_factory=list)
    hashseed_divergence: Optional[Divergence] = None

    @property
    def ok(self) -> bool:
        return (self.divergence is None and self.wall_clock_leak is None
                and self.hashseed_divergence is None)

    def render(self) -> str:
        lines = [
            f"sanitize {self.scenario} × {self.technique} (seed {self.seed})",
            f"  in-process runs: {len(self.digests)}, "
            f"digests: {', '.join(self.digests) or '-'}, "
            f"events: {', '.join(str(c) for c in self.event_counts) or '-'}",
        ]
        if self.wall_clock_leak is not None:
            lines.append(f"  WALL-CLOCK LEAK: {self.wall_clock_leak}")
        if self.divergence is not None:
            lines.append("  " + self.divergence.render().replace("\n", "\n  "))
        if self.hashseed_digests:
            lines.append(
                f"  hashseed probe (PYTHONHASHSEED="
                f"{HASHSEED_PROBE_SEEDS[0]}/{HASHSEED_PROBE_SEEDS[1]}): "
                f"digests {', '.join(self.hashseed_digests)}")
        if self.hashseed_divergence is not None:
            lines.append("  " + self.hashseed_divergence.render(
                f"PYTHONHASHSEED={HASHSEED_PROBE_SEEDS[0]}",
                f"PYTHONHASHSEED={HASHSEED_PROBE_SEEDS[1]}",
            ).replace("\n", "\n  "))
        lines.append("  verdict: " + ("deterministic ✓" if self.ok
                                      else "NOT deterministic ✗"))
        return "\n".join(lines)


def sanitize_spec(spec_builder: Callable[[], object], *, scenario: str = "",
                  technique: str = "", seed: int = 0) -> SanitizeReport:
    """Run a spec twice in-process and diff the two event streams.

    ``spec_builder`` is called once per run, so a bug in spec construction
    is exercised too.  The hashseed probe is a separate, scenario-level
    concern — see :func:`sanitize_scenario`.
    """
    report = SanitizeReport(scenario=scenario, technique=technique, seed=seed)
    runs: List[RecordedRun] = []
    for _ in range(2):
        try:
            recorded = record_session(spec_builder())
        except WallClockLeakError as leak:
            report.wall_clock_leak = str(leak)
            return report
        report.digests.append(recorded.digest)
        report.event_counts.append(len(recorded.events))
        runs.append(recorded)
    report.divergence = first_divergence(runs[0].events, runs[1].events)
    return report


# -- hashseed probe (subprocess) ----------------------------------------------

def _worker_payload(scenario: str, technique: str,
                    params) -> Dict[str, object]:
    from dataclasses import asdict

    return {
        "scenario": scenario,
        "technique": technique,
        "params": asdict(params),
    }


def run_sanitize_worker(payload: Dict[str, object]) -> Dict[str, object]:
    """Body of ``python -m repro.lint --sanitize-worker`` (JSON in/out)."""
    from repro.scenarios.base import ScenarioParams
    from repro.scenarios.engine import scenario_session

    params = ScenarioParams(**payload["params"])
    spec = scenario_session(payload["scenario"], payload["technique"], params)
    recorded = record_session(spec)
    return {
        "digest": recorded.digest,
        "events": [list(event) for event in recorded.events],
    }


def _spawn_worker(payload: Dict[str, object], hashseed: int) -> RecordedRun:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hashseed)
    src_root = str(default_src_root())
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (src_root if not existing
                         else os.pathsep.join([src_root, existing]))
    result = subprocess.run(
        [sys.executable, "-m", "repro.lint", "--sanitize-worker"],
        input=json.dumps(payload), capture_output=True, text=True, env=env,
        timeout=600,
    )
    if result.returncode != 0:
        raise RuntimeError(
            f"sanitize worker (PYTHONHASHSEED={hashseed}) failed:\n"
            f"{result.stderr.strip()}"
        )
    parsed = json.loads(result.stdout)
    return RecordedRun(
        digest=parsed["digest"],
        events=[tuple(event) for event in parsed["events"]],
    )


def default_src_root() -> str:
    """The directory containing the ``repro`` package (worker PYTHONPATH)."""
    import repro

    return os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def sanitize_scenario(scenario: str, technique: str = "general",
                      params=None, *,
                      hashseed_probe: bool = True) -> SanitizeReport:
    """Sanitize one registered scenario end to end.

    In-process double run (+ wall-clock tripwire) first; then, unless
    disabled, the two-subprocess ``PYTHONHASHSEED`` probe.  Any divergence
    short-circuits: the report carries the first divergent event of the
    probe that caught it.
    """
    from repro.scenarios.base import ScenarioParams
    from repro.scenarios.engine import scenario_session

    params = params or ScenarioParams(flow_count=2, max_update_duration=5.0)
    report = sanitize_spec(
        lambda: scenario_session(scenario, technique, params),
        scenario=scenario, technique=technique, seed=params.seed,
    )
    if not report.ok or not hashseed_probe:
        return report
    payload = _worker_payload(scenario, technique, params)
    left = _spawn_worker(payload, HASHSEED_PROBE_SEEDS[0])
    right = _spawn_worker(payload, HASHSEED_PROBE_SEEDS[1])
    report.hashseed_digests = [left.digest, right.digest]
    report.hashseed_divergence = first_divergence(left.events, right.events)
    return report
