"""A seeded run replays event for event, in one process and across two.

Each recorded run has a recorder in its event tap (``spec.run(observer=...)``)
and a tripwire on ``time.*`` clocks.  A mismatch names the **first divergent
simulator event**.  The hash-seed probe replays a cell in two subprocesses
with different ``PYTHONHASHSEED`` values, the only way to see a hash-derived
value; each runs this file (``python test_determinism.py <scenario>
<technique>`` prints the recorded run as JSON).  Payloads are described by
type, ``.name`` and ``.xid``, never ``repr``, which embeds addresses.  Each
session numbers its own xids, so two runs compare with nothing rewound
between them.
"""

import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest

from repro.core.techniques import available_techniques
from repro.scenarios import ScenarioParams, available_scenarios, scenario_session
from repro.sim.rng import SeededRandom

ROOT = Path(__file__).resolve().parents[2]
_PARAMS = ScenarioParams(flow_count=2, seed=7, max_update_duration=5.0)
#: Distinct interpreter hash seeds the probe pins its two workers to.
HASHSEEDS = (101, 202)


class WallClockLeakError(RuntimeError):
    """A wall-clock read happened inside a recorded simulation run."""


def wall_clock_tripwire():
    """Any ``time.*`` clock read raises inside the block."""
    return mock.patch.multiple(time, **{name: mock.Mock(side_effect=WallClockLeakError(
        f"time.{name}() was called inside a recorded simulation run; simulation code "
        "must read Simulator.now")) for name in ("time", "time_ns", "monotonic",
                                                 "monotonic_ns", "perf_counter", "perf_counter_ns")})


def _callback_name(callback):
    """A process-stable name for a kernel callback."""
    owner = getattr(callback, "__self__", None)
    plain = getattr(callback, "__name__", type(callback).__name__)
    if owner is None:
        return getattr(callback, "__qualname__", plain)
    owner_name = getattr(owner, "name", None)
    at = f"@{owner_name}" if isinstance(owner_name, str) and owner_name else ""
    return f"{type(owner).__name__}.{plain}{at}"


def _describe(value, depth=0):
    """A process-stable description of one callback argument."""
    if value is None or isinstance(value, (bool, int)):
        return repr(value)
    if isinstance(value, float):
        return format(value, ".9g")
    if isinstance(value, str):
        return repr(value[:48])
    if isinstance(value, (tuple, list)) and depth < 2:
        inner = ", ".join(_describe(item, depth + 1) for item in value[:4])
        return f"[{inner}{', ...' if len(value) > 4 else ''}]"
    xid = getattr(value, "xid", None)
    if isinstance(xid, int):
        return f"{type(value).__name__}(xid={xid})"
    name = getattr(value, "name", None)
    if isinstance(name, str) and name:
        return f"{type(value).__name__}({name})"
    return type(value).__name__


def record(spec):
    """Run ``spec`` once, tripwired; ``(digest, events)``."""
    events = []

    def observer(_sim, ts, callback, args):
        events.append((ts, _callback_name(callback), ", ".join(map(_describe, args))))

    with wall_clock_tripwire():
        run = spec.run(observer=observer)
    return run.digest(), events


def _record_cell(scenario, technique):
    return record(scenario_session(scenario, technique, _PARAMS))


def first_divergence(left, right, labels=("run 1", "run 2")):
    """The first event two streams disagree on, rendered; ``None`` if equal."""
    index = next((i for i, (a, b) in enumerate(zip(left, right)) if a != b),
                 min(len(left), len(right)))
    if index == len(left) == len(right):
        return None

    def side(label, events):
        if index >= len(events):
            return f"  {label}: <stream ended>"
        ts, name, detail = events[index]
        return f"  {label}: t={ts:.9f} {name}{f' [{detail}]' if detail else ''}"

    return "\n".join([f"first divergent simulator event at index {index}:",
                      side(labels[0], left), side(labels[1], right)])


def _record_in_subprocess(scenario, technique, hashseed):
    # src/ and the oracles go ahead of the inherited PYTHONPATH, whose
    # sitecustomize.py (if any) the worker still imports at start-up.
    path = [str(ROOT / "src"), str(ROOT / "tests" / "oracles"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed),
               PYTHONPATH=os.pathsep.join(filter(None, path)))
    result = subprocess.run([sys.executable, __file__, scenario, technique],
                            capture_output=True, text=True, env=env, timeout=600)
    assert result.returncode == 0, result.stderr
    parsed = json.loads(result.stdout)
    return parsed["digest"], [tuple(event) for event in parsed["events"]]


@pytest.mark.parametrize("technique", available_techniques())
@pytest.mark.parametrize("scenario", available_scenarios())
def test_a_seeded_cell_replays_event_for_event(scenario, technique):
    (first_digest, first), (second_digest, second) = (
        _record_cell(scenario, technique) for _ in range(2))
    assert first, "the recorder saw no events"
    assert first_divergence(first, second) is None, first_divergence(first, second)
    assert first_digest == second_digest


def test_a_cell_replays_under_two_hash_seeds():
    # On firewall-rollout because nothing else pins it: path-migration's
    # outcomes are pinned digests, which a hash-derived value breaks under
    # pytest's own random hash seed.
    (left_digest, left), (right_digest, right) = (
        _record_in_subprocess("firewall-rollout", "general", seed) for seed in HASHSEEDS)
    divergence = first_divergence(left, right, [f"PYTHONHASHSEED={s}" for s in HASHSEEDS])
    assert divergence is None, divergence
    assert left_digest == right_digest


#: The hash-fork bug: ``SeededRandom.fork`` deriving child seeds from
#: ``hash()``, which ``PYTHONHASHSEED`` randomizes per interpreter.  RL001
#: flags this text statically (``tests/unit/test_lint.py``).
HASH_FORK = ("def fork(self, label):\n"
             "    return SeededRandom(abs(hash(f'{self.seed}:{label}')) % (2 ** 31) or 1)\n")


def test_the_hash_seed_probe_catches_a_hash_derived_fork(tmp_path, monkeypatch):
    namespace = {"SeededRandom": SeededRandom}
    exec(HASH_FORK, namespace)
    monkeypatch.setattr(SeededRandom, "fork", namespace["fork"])
    # The workers import sitecustomize at start-up, so they run the bug too.
    (tmp_path / "sitecustomize.py").write_text(
        f"from repro.sim.rng import SeededRandom\n{HASH_FORK}SeededRandom.fork = fork\n",
        encoding="utf-8")
    monkeypatch.setenv("PYTHONPATH", str(tmp_path))
    # Stable within a process: the in-process double run agrees...
    assert _record_cell("path-migration", "general") == _record_cell("path-migration", "general")
    # ...but the two hash seeds do not.
    (left_digest, left), (right_digest, right) = (
        _record_in_subprocess("path-migration", "general", seed) for seed in HASHSEEDS)
    assert left_digest != right_digest
    assert first_divergence(left, right) is not None


def test_injected_drift_names_the_first_divergent_event(monkeypatch):
    # Child seeds drift with a process-wide fork counter, as leaked global
    # state does: the second run of the same spec diverges from the first.
    real_fork, forks = SeededRandom.fork, itertools.count(1)
    monkeypatch.setattr(SeededRandom, "fork", lambda self, label: SeededRandom(
        real_fork(self, label).seed + next(forks)))
    (_, first), (_, second) = (_record_cell("path-migration", "general") for _ in range(2))
    divergence = first_divergence(first, second)
    assert divergence.startswith("first divergent simulator event at index")
    assert "run 1: t=" in divergence and "run 2: t=" in divergence


if __name__ == "__main__":
    digest, events = _record_cell(*sys.argv[1:3])
    print(json.dumps({"digest": digest, "events": events}))
