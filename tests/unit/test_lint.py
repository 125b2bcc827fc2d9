"""Tests for the reproducibility linter and the determinism sanitizer.

Three layers:

* per-rule fixtures — every rule fires on its ``*_violation.py`` snippet
  (golden diagnostic strings) and stays silent on ``*_clean.py``; a rule's
  ``allowed_modules`` is the only exemption, a ``noqa`` comment is none;
* the engine — registry contracts, the src/repro self-check;
* the sanitizer — clean double runs agree, injected nondeterminism is
  caught and the report names the first divergent event, and the
  hash-fork bug is caught *both* statically (RL001) and at runtime (the
  ``PYTHONHASHSEED`` probe).  The bugs are injected here, by the tests,
  not by anything in ``src/``.
"""

import ast
import itertools
import time
from pathlib import Path

import pytest

from repro.lint import (
    ENGINE_CODE,
    RULES,
    Diagnostic,
    LintRule,
    WallClockLeakError,
    available_rules,
    default_target,
    first_divergence,
    get_rule,
    lint_paths,
    lint_source,
    rule_catalog,
    sanitize_scenario,
    sanitize_spec,
    wall_clock_tripwire,
)
from repro.lint.sanitizer import record_session
from repro.scenarios.base import ScenarioParams
from repro.sim.rng import SeededRandom

FIXTURES = Path(__file__).parent / "lint_fixtures"

#: RL004, RL005 and RL007 are retired codes; they are not reused.
ALL_RULES = ("RL001", "RL002", "RL003", "RL006")


def _lint_fixture(name: str):
    """Lint one fixture file under its intended module label."""
    path = FIXTURES / name
    # RL006 is scoped to hot-path modules, so its fixtures lint under sim/.
    module = f"sim/{name}" if name.startswith("rl006") else name
    return lint_source(path.read_text(encoding="utf-8"), module=module)


# -- per-rule fixtures --------------------------------------------------------


@pytest.mark.parametrize("code", ALL_RULES)
def test_each_rule_fires_on_its_violation_fixture(code):
    diagnostics = _lint_fixture(f"{code.lower()}_violation.py")
    assert diagnostics, f"{code} found nothing in its violation fixture"
    assert {diag.code for diag in diagnostics} == {code}


@pytest.mark.parametrize("code", ALL_RULES)
def test_each_rule_is_silent_on_its_clean_fixture(code):
    assert _lint_fixture(f"{code.lower()}_clean.py") == []


def test_golden_diagnostics_rl001():
    rendered = [d.render() for d in _lint_fixture("rl001_violation.py")]
    assert rendered == [
        "rl001_violation.py:5:15: RL001 hash() yields process-dependent "
        "values (PYTHONHASHSEED / object addresses); derive stable values "
        "via zlib.crc32(...) or an explicit counter",
        "rl001_violation.py:9:11: RL001 id() yields process-dependent "
        "values (PYTHONHASHSEED / object addresses); derive stable values "
        "via zlib.crc32(...) or an explicit counter",
    ]


def test_golden_diagnostics_rl006():
    rendered = [d.render() for d in _lint_fixture("rl006_violation.py")]
    assert rendered == [
        "sim/rl006_violation.py:4:0: RL006 class Token lives in a hot-path "
        "module but declares no __slots__ (per-instance dicts in the "
        "kernel loop)",
    ]


def test_rl002_allowlists_the_wall_clock_modules():
    source = (FIXTURES / "rl002_violation.py").read_text(encoding="utf-8")
    assert lint_source(source, module="obs/profiler.py") == []
    assert lint_source(source, module="campaign/heartbeat.py") == []
    assert lint_source(source, module="session/engine.py")


def test_rl006_only_applies_to_hot_path_modules():
    source = (FIXTURES / "rl006_violation.py").read_text(encoding="utf-8")
    assert lint_source(source, module="controller/planner.py") == []
    assert lint_source(source, module="net/link.py")
    assert lint_source(source, module="packet/fields.py")


# -- exemptions ---------------------------------------------------------------


def test_a_noqa_comment_exempts_nothing():
    source = "seed = abs(hash(name))  # repro: noqa(RL001): any reason\n"
    assert [d.code for d in lint_source(source, module="x.py")] == ["RL001"]


def test_syntax_errors_surface_as_engine_diagnostics():
    diagnostics = lint_source("def broken(:\n", module="x.py")
    assert [d.code for d in diagnostics] == [ENGINE_CODE]
    assert "syntax error" in diagnostics[0].message


# -- registry -----------------------------------------------------------------


def test_every_catalogued_rule_is_registered():
    assert tuple(available_rules()) == ALL_RULES


def test_rule_catalog_has_invariants_for_every_rule():
    rows = rule_catalog()
    assert [row["code"] for row in rows] == list(ALL_RULES)
    assert all(row["invariant"] for row in rows)


def test_register_rule_rejects_bad_codes_and_duplicates():
    with pytest.raises(ValueError, match="RL001"):
        class BadCode(LintRule):
            code = "X1"
            name = "bad"

    with pytest.raises(ValueError, match="already registered"):
        class Duplicate(LintRule):
            code = "RL001"
            name = "duplicate"

    assert get_rule("RL001").name == "hash-derived-value"


@pytest.fixture()
def toy_rule():
    # Defining the class registers it, so it lives only as long as the test.
    class NoSpookyConstants(LintRule):
        code = "RL099"
        name = "no-spooky-constants"
        invariant = "magic numbers above 9000 are banned"

        def check(self, info):
            for node in info.walk(ast.Constant):
                if isinstance(node.value, int) and node.value > 9000:
                    yield self.diagnostic(info, node, "it's over 9000")

    try:
        yield NoSpookyConstants
    finally:
        RULES.pop(NoSpookyConstants.code)


def test_toy_rule_registration_roundtrip(toy_rule):
    assert get_rule("RL099") is toy_rule
    assert "RL099" in available_rules()
    diagnostics = lint_source("power = 9001\n", module="x.py")
    assert any(d.code == "RL099" for d in diagnostics)


def test_diagnostics_sort_by_location():
    a = Diagnostic("b.py", 1, 0, "RL001", "x")
    b = Diagnostic("a.py", 9, 0, "RL002", "y")
    c = Diagnostic("a.py", 2, 0, "RL002", "z")
    assert sorted([a, b, c]) == [c, b, a]


# -- the self-check: this repository lints clean ------------------------------


def test_src_repro_is_lint_clean():
    target = default_target()
    assert target.name == "repro"
    assert lint_paths([target]) == []


def test_linter_runs_on_itself():
    lint_dir = default_target() / "lint"
    assert lint_paths([lint_dir]) == []


# -- sanitizer ----------------------------------------------------------------

_SMOKE = dict(flow_count=2, max_update_duration=5.0)

#: The hash-fork bug: ``SeededRandom.fork`` deriving child seeds from
#: ``hash()``, which ``PYTHONHASHSEED`` randomizes per interpreter.  RL001
#: lints this text, and the runtime test installs it in-process and in the
#: hashseed probe's workers.
_HASH_FORK = (
    "def fork(self, label):\n"
    "    child_seed = abs(hash(f'{self.seed}:{label}')) % (2 ** 31) or 1\n"
    "    return SeededRandom(child_seed)\n"
)


def test_sanitizer_clean_run_is_deterministic():
    report = sanitize_scenario(
        "path-migration", "general", ScenarioParams(**_SMOKE),
        hashseed_probe=False)
    assert report.ok
    assert len(set(report.digests)) == 1
    assert report.event_counts[0] > 100
    assert "deterministic" in report.render()


def test_sanitizer_names_first_divergent_event_on_injected_drift(monkeypatch):
    # Child seeds drift with a process-wide fork counter, as leaked global
    # state does: the second run of the same spec diverges from the first.
    real_fork = SeededRandom.fork
    forks = itertools.count(1)
    monkeypatch.setattr(SeededRandom, "fork", lambda self, label: SeededRandom(
        real_fork(self, label).seed + next(forks)))
    report = sanitize_scenario(
        "path-migration", "general", ScenarioParams(**_SMOKE),
        hashseed_probe=False)
    assert not report.ok
    assert report.divergence is not None
    # The report names the event, not just "digests differ".
    text = report.render()
    assert "first divergent simulator event at index" in text
    assert "t=" in text
    left, right = report.divergence.left, report.divergence.right
    assert left is not None and right is not None
    assert left != right


def test_hash_fork_bug_is_caught_statically_by_rl001():
    diagnostics = lint_source(_HASH_FORK, module="sim/rng.py")
    assert [d.code for d in diagnostics] == ["RL001"]


def test_hash_fork_bug_is_caught_at_runtime_by_the_hashseed_probe(
        tmp_path, monkeypatch):
    namespace = {"SeededRandom": SeededRandom}
    exec(_HASH_FORK, namespace)
    monkeypatch.setattr(SeededRandom, "fork", namespace["fork"])
    # The probe's workers import sitecustomize at start-up; the sanitizer
    # puts src/ ahead of the inherited PYTHONPATH, so they run the bug too.
    (tmp_path / "sitecustomize.py").write_text(
        "from repro.sim.rng import SeededRandom\n" + _HASH_FORK
        + "SeededRandom.fork = fork\n", encoding="utf-8")
    monkeypatch.setenv("PYTHONPATH", str(tmp_path))
    report = sanitize_scenario(
        "path-migration", "general", ScenarioParams(**_SMOKE),
        hashseed_probe=True)
    # Stable within a process: the in-process double run agrees...
    assert report.divergence is None
    assert len(set(report.digests)) == 1
    # ...but the two PYTHONHASHSEED subprocesses disagree, and the report
    # pins the first event where they fork.
    assert len(set(report.hashseed_digests)) == 2
    assert report.hashseed_divergence is not None
    assert not report.ok
    assert "PYTHONHASHSEED" in report.render()


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

    report = sanitize_spec(LeakySpec, scenario="leaky", technique="none")
    assert not report.ok
    assert report.wall_clock_leak is not None
    assert "time.monotonic()" in report.wall_clock_leak


def test_record_session_streams_are_stable_and_digest_matches():
    from repro.scenarios.engine import scenario_session

    spec = scenario_session("path-migration", "general",
                            ScenarioParams(**_SMOKE))
    first = record_session(spec)
    second = record_session(
        scenario_session("path-migration", "general",
                         ScenarioParams(**_SMOKE)))
    assert first.digest == second.digest
    assert first.events == second.events
    assert first_divergence(first.events, second.events) is None


def test_kernel_observer_refuses_to_nest():
    # One simulator has one observer slot: a recorded session cannot also
    # be profiled, and the failed attempt leaves nothing behind.
    from repro.scenarios.engine import scenario_session

    profiled = scenario_session("path-migration", "general",
                                ScenarioParams(profile=True, **_SMOKE))
    with pytest.raises(RuntimeError, match="already has an event observer"):
        record_session(profiled)
    bare = record_session(scenario_session("path-migration", "general",
                                           ScenarioParams(**_SMOKE)))
    assert bare.events


# -- CLI ----------------------------------------------------------------------


def test_cli_clean_exit_on_clean_fixture(capsys):
    from repro.lint.__main__ import main

    assert main([str(FIXTURES / "rl003_clean.py")]) == 0
    assert "clean" in capsys.readouterr().out


def test_cli_list_rules(capsys):
    from repro.lint.__main__ import main

    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in ALL_RULES:
        assert code in out
