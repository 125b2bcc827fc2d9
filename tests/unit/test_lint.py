"""Unit tests of the determinism checks themselves.

The gates in ``tests/gates/`` apply the rules to ``src/repro`` and the
recorder to every scenario x technique; these tests show that each check
catches the bug it names and passes its fix.  Every rule has a bug snippet
and a fix snippet; the recorder, the tripwire and ``first_divergence`` are
exercised on one small cell and on a spec that reads the wall clock.
"""

import ast
import time

import pytest

from test_determinism import (
    HASH_FORK,
    WallClockLeakError,
    first_divergence,
    record,
    wall_clock_tripwire,
)
from test_determinism_rules import (
    ambient_entropy,
    classes_defined_in,
    hash_derived_values,
    missing_slots,
    unordered_iteration,
)

from repro.scenarios import ScenarioParams, scenario_session

#: ``code: (rule, bug, fix)``.
SNIPPETS = {
    "RL001": (hash_derived_values, "seed = abs(hash(f'{seed}:{label}'))\nslot = id(obj) % 64",
              "seed = zlib.crc32(f'{seed}:{label}'.encode())\n"
              "class Key:\n    def __hash__(self): return hash(self.value)"),
    "RL002": (ambient_entropy, "from time import perf_counter\n"
                               "wall = time.time(); token = random.randrange(9)",
              "when = sim.now; token = random.Random(seed).randrange(9)"),
    "RL003": (unordered_iteration, "for f in set(a) | set(b): out.append(f)\n"
                                   "names = list({item.name for item in items})",
              "for f in sorted(set(a) | set(b)): out.append(f)\n"
              "names = sorted({item.name for item in items})"),
    "RL006": (missing_slots, "class Token:\n    def __init__(self, v): self.v = v",
              "import dataclasses\nclass Token: __slots__ = ('v',)\n"
              "@dataclasses.dataclass\nclass Snapshot: when: float\n"
              "class KernelError(Exception): pass"),
}


def _check(code, source):
    rule = SNIPPETS[code][0]
    if rule is missing_slots:
        namespace = {"__name__": "snippet"}
        exec(source, namespace)
        return rule(classes_defined_in(namespace, "snippet"))
    return rule(ast.parse(source))


@pytest.mark.parametrize("code", sorted(SNIPPETS))
def test_each_rule_fires_on_its_violation_fixture(code):
    assert _check(code, SNIPPETS[code][1])


@pytest.mark.parametrize("code", sorted(SNIPPETS))
def test_each_rule_is_silent_on_its_clean_fixture(code):
    assert _check(code, SNIPPETS[code][2]) == []


def test_golden_diagnostics_rl001():
    assert _check("RL001", SNIPPETS["RL001"][1]) == [
        (1, "hash() yields process-dependent values"),
        (2, "id() yields process-dependent values"),
    ]


def test_golden_diagnostics_rl006():
    assert _check("RL006", SNIPPETS["RL006"][1]) == ["Token"]


def test_hash_fork_bug_is_caught_statically_by_rl001():
    assert hash_derived_values(ast.parse(HASH_FORK)) == [
        (2, "hash() yields process-dependent values")]


_SMOKE = ScenarioParams(flow_count=2, seed=7, max_update_duration=5.0)


def _record_smoke():
    return record(scenario_session("path-migration", "general", _SMOKE))


def test_sanitizer_clean_run_is_deterministic():
    (first_digest, first), (second_digest, second) = _record_smoke(), _record_smoke()
    assert first_digest == second_digest
    assert first_divergence(first, second) is None
    assert len(first) > 100
    assert [ts for ts, _, _ in first] == sorted(ts for ts, _, _ in first)


def test_record_session_streams_are_stable_and_digest_matches():
    digest, events = _record_smoke()
    assert _record_smoke() == (digest, events)
    # Recording does not perturb the run: an unobserved run has the same
    # digest.
    assert scenario_session("path-migration", "general", _SMOKE).run().digest() == digest


def test_wall_clock_tripwire_trips_and_restores():
    before = time.perf_counter
    with wall_clock_tripwire():
        with pytest.raises(WallClockLeakError):
            time.time()
        with pytest.raises(WallClockLeakError):
            time.perf_counter()
    assert time.perf_counter is before


def test_sanitize_spec_reports_wall_clock_leaks():
    class LeakySpec:
        def run(self, observer=None):
            time.monotonic()

    with pytest.raises(WallClockLeakError, match=r"time\.monotonic\(\)"):
        record(LeakySpec())
