"""The exact text of ``python -m repro show`` and ``python -m repro
status`` on a frozen fixture.

``tests/fixtures/show/`` holds:

* ``results.jsonl`` — eight path-migration cells with frozen ``wall_s``,
  ``worker_pid`` and ``peak_rss_kb``: seeds 1, 2 and 10, one cell under
  ``delay-spike``, one ``incomplete`` (a 10 ms deadline) and one ``error``;
* ``baseline.jsonl`` — the same cells, except that the ``error`` cell is
  ``ok`` there;
* ``timeout.json`` and ``barrier.json`` — traced record payloads of one
  path-migration run (seed 7, two flows, ``delay-spike(probability=0.4)``);
* ``heartbeats/`` — four worker shards and a manifest, one shard from the
  invocation before it.

Each case runs the CLI from the fixture directory, so the paths in titles
are the relative names above, and compares stdout and the exit code with
``expected/<case>``.  The case that reads ``baseline-store`` runs from a
scratch directory holding a copy of ``results.jsonl`` beside a store
ingested from ``baseline.jsonl``.  After a change that is meant to move
these bytes, regenerate them with ``PYTHONPATH=src python
tests/unit/test_show_golden.py`` and name each moved line in the change's
notes.
"""

import contextlib
import io
import os
import shutil
import sys
import time
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.store.store import RunStore

FIXTURE = Path(__file__).resolve().parents[1] / "fixtures" / "show"
EXPECTED = FIXTURE / "expected"

#: The wall clock ``--status`` reads: 100 s after the fixture's last beat
#: window opened (its manifest says the invocation started 200 s before).
STATUS_NOW = 1_700_000_100.0

#: ``expected/<name>`` -> (argv, exit code).
CASES = {
    "show-results.txt": (["show", "results.jsonl"], 0),
    "show-results-baseline.txt": (
        ["show", "results.jsonl", "baseline.jsonl"], 0),
    "show-results-store.txt": (
        ["show", "results.jsonl", "baseline-store"], 0),
    "show-run.txt": (["show", "timeout.json"], 0),
    "show-diff.txt": (["show", "timeout.json", "barrier.json"], 1),
    "show-diff.json": (["show", "timeout.json", "barrier.json",
                        "--format", "json"], 1),
    "status.txt": (["status", "heartbeats"], 0),
}


def _workdir(argv, tmp):
    """Where a case runs: the fixture, or, for a case that names
    ``baseline-store``, ``tmp`` holding a copy of ``results.jsonl`` beside a
    store ingested from ``baseline.jsonl``."""
    if "baseline-store" not in argv:
        return FIXTURE
    shutil.copy(FIXTURE / "results.jsonl", tmp / "results.jsonl")
    RunStore(tmp / "baseline-store").ingest(FIXTURE / "baseline.jsonl")
    return tmp


def _run(argv, store_dir):
    """``(exit code, stdout)`` of one CLI call made from the fixture."""
    out = io.StringIO()
    cwd = os.getcwd()
    real_time = time.time
    os.chdir(_workdir(argv, store_dir.parent))
    try:
        with contextlib.redirect_stdout(out):
            time.time = lambda: STATUS_NOW
            code = main(["--store", str(store_dir), *argv])
    finally:
        time.time = real_time
        os.chdir(cwd)
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_the_cli_prints_the_pinned_bytes(name, tmp_path):
    argv, expected_code = CASES[name]
    code, out = _run(argv, tmp_path / "store")
    assert out == (EXPECTED / name).read_text(encoding="utf-8")
    assert code == expected_code
    # Reading files never creates a store.
    assert not (tmp_path / "store").exists()


if __name__ == "__main__":
    import tempfile

    EXPECTED.mkdir(exist_ok=True)
    for name, (argv, _code) in sorted(CASES.items()):
        _code, text = _run(argv, Path(tempfile.mkdtemp()) / "store")
        (EXPECTED / name).write_text(text, encoding="utf-8")
        print(f"wrote {EXPECTED / name} ({len(text)} bytes)", file=sys.stderr)
