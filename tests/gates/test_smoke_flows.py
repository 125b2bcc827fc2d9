"""End-to-end flows CI's smoke jobs used to drive and no unit test does.

Each goes through the entry point a user types — ``python -m repro``, in a
fresh interpreter once and as ``main(argv)`` otherwise, or an example
script — rather than the API underneath.
"""

import json
import logging
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.experiments.figures import FIGURES
from repro.obs.export import validate_chrome_trace, write_chrome_trace
from repro.scenarios import ScenarioParams, run_scenario
from repro.store import RunStore

ROOT = Path(__file__).resolve().parents[2]

_GRID = ["--scenarios", "path-migration", "--techniques", "timeout,general",
         "--seeds", "1,2", "--flows", "2", "--trace", "--no-report"]


def test_a_stored_grid_reruns_from_cache_and_reports_byte_identically(
        tmp_path, capsys, caplog):
    results, store = str(tmp_path / "results.jsonl"), str(tmp_path / "store")

    def show(*refs):
        capsys.readouterr()
        code = main(["--store", store, "show", *refs])
        return code, capsys.readouterr().out

    assert main(["run", *_GRID, "--out", results]) == 0
    assert main(["--store", store, "ingest", results]) == 0
    assert main(["--store", store, "verify"]) == 0
    code, first = show(results)
    assert code == 0 and first.startswith(f"Campaign report — {results}")

    with caplog.at_level(logging.INFO, logger="repro"):
        assert main(["--store", store, "run", *_GRID,
                     "--out", results]) == 0
    assert "ran 0, cached 4" in caplog.text
    assert show(results) == (0, first)

    left, right = RunStore(store).digests()[:2]
    code, out = show(left, right, "--format", "json")
    assert code in (0, 1)
    payload = json.loads(out)
    assert set(payload) >= {"left", "right", "identical", "traced", "summary",
                            "changed", "gap_deltas", "divergence", "explanation"}
    assert payload["traced"] is True, "stored traces were not aligned"
    if payload["divergence"] is not None:
        assert set(payload["divergence"]) >= {"ts", "switch", "xid", "phase", "reason"}


def test_a_recovered_run_shows_resync_spans_on_its_chrome_trace(tmp_path):
    record = run_scenario("rolling-upgrade", "general",
                          ScenarioParams(flow_count=2, seed=7, trace=True))
    assert record.recovery["reconverged"], record.recovery
    shard = tmp_path / "rolling-upgrade.trace.json"
    write_chrome_trace(record.trace, shard)
    payload = json.loads(shard.read_text(encoding="utf-8"))
    assert validate_chrome_trace(payload) is None
    names = [event["name"] for event in payload["traceEvents"]]
    assert names.count("resync") >= 1, "no resync spans on the trace"
    assert "rule-reinstalled" in names, "no reinstall instants"


def _catalogue(out):
    """The figure names ``list`` prints after its registries."""
    catalogue = out.split("(figure NAME runs one)\n", 1)[1]
    return [line.split(":")[0] for line in catalogue.splitlines()
            if not line.startswith(" ")]


def test_the_experiments_cli_lists_the_catalogue_and_runs_a_named_figure(capsys):
    assert main(["list"]) == 0
    listed = _catalogue(capsys.readouterr().out)
    assert listed == list(FIGURES) and len(listed) == 8
    assert main(["figure", "fig2"]) == 0
    assert capsys.readouterr().out.startswith(
        "Figure 2: transient firewall bypass during the update\n")
    with pytest.raises(SystemExit):
        main(["figure", "fig3"])


def test_the_one_entry_point_runs_as_a_module_and_the_old_ones_are_gone():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def module(name, *argv):
        return subprocess.run([sys.executable, "-m", name, *argv], env=env,
                              capture_output=True, text=True, timeout=120)

    door = module("repro", "list")
    assert door.returncode == 0, door.stderr
    assert "Registered scenarios" in door.stdout
    assert _catalogue(door.stdout) == list(FIGURES)
    for old in ("repro.campaign", "repro.store", "repro.experiments"):
        assert module(old, "list").returncode != 0, old


def _runs_headless(capsys, script, *args):
    runpy.run_path(str(ROOT / "examples" / script))["main"](*args)
    return capsys.readouterr().out


def test_the_quickstart_example_runs_headless(capsys):
    out = _runs_headless(capsys, "quickstart.py")
    assert "acknowledged rules: 30/30" in out
    assert "acknowledgments were never early" in out


@pytest.mark.parametrize("script, args, expected", [
    # Each at the smallest size it accepts.
    ("firewall_bypass.py", (),
     ["barrier acknowledgments opened a transient hole; RUM kept the policy intact."]),
    ("probe_overhead_sweep.py", (40,),
     ["sequential, probe after 20", "barriers (unsafe reference)"]),
    ("path_migration.py", ("general", 2),
     ["Broken time distribution (cf. Figure 1b)",
      "packets dropped with general   : 0"]),
    # The two examples that build fault-plan and recovery-policy strings.
    ("fault_sweep.py", (),
     ["Correctness under ack loss (fault-sweep scenario, seed 7)",
      "ack-loss p=1.0   barrier  completed=False",
      "ack-loss p=1.0   general  completed=True"]),
    ("rolling_outage.py", (),
     ["Rolling pod-0 crash wave — recovery on vs off (seed 7)",
      " +recovery=off | ", " +recovery=on  | "]),
    # The two that write files: a relative Path argument lands in tmp_path.
    ("diff_techniques.py", (Path("runstore"),),
     ["store verify        -> clean", "Run diff — timeout vs general",
      "verdict: first divergence at t="]),
    ("scenario_campaign.py", (Path("scenario-campaign.jsonl"),),
     ["registered scenarios: correlated-tor-outage, ecmp-rebalance,",
      "general  duration=", "ran 8, cached 0",
      "Campaign report"]),
], ids=["firewall-bypass", "probe-overhead-sweep", "path-migration",
        "fault-sweep", "rolling-outage", "diff-techniques", "scenario-campaign"])
def test_the_paper_examples_run_headless(capsys, tmp_path, script, args, expected):
    args = [tmp_path / arg if isinstance(arg, Path) else arg for arg in args]
    out = _runs_headless(capsys, script, *args)
    for line in expected:
        assert line in out
    for label, recovered in _recovered_cells(out):
        if "+recovery=on" in label:
            assert recovered == "1/1", label


def _recovered_cells(out):
    """``(fault label, recovered)`` of every resilience-table row in ``out``."""
    rows = [[cell.strip() for cell in line.split(" | ")]
            for line in out.splitlines()]
    cells = []
    for index, header in enumerate(rows):
        if "recovered" in header:
            column = header.index("recovered")
            # Skip the ``-+-`` rule line under the header.
            cells += [(row[0], row[column]) for row in rows[index + 2:]
                      if len(row) == len(header)]
    return cells
