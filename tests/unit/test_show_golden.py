"""The exact text of ``python -m repro.store show`` and ``python -m
repro.campaign --status`` on a frozen fixture.

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
``expected/<case>``.  After a change that is meant to move these bytes,
regenerate them with ``PYTHONPATH=src python tests/unit/test_show_golden.py``
and name each moved line in the change's notes.
"""

import contextlib
import io
import os
import sys
import time
from pathlib import Path

import pytest

from repro.campaign.__main__ import main as campaign_main
from repro.store.__main__ import main as store_main

FIXTURE = Path(__file__).resolve().parents[1] / "fixtures" / "show"
EXPECTED = FIXTURE / "expected"

#: The wall clock ``--status`` reads: 100 s after the fixture's last beat
#: window opened (its manifest says the invocation started 200 s before).
STATUS_NOW = 1_700_000_100.0

#: ``expected/<name>`` -> (CLI, argv, exit code).
CASES = {
    "show-results.txt": ("store", ["show", "results.jsonl"], 0),
    "show-results-baseline.txt": (
        "store", ["show", "results.jsonl", "baseline.jsonl"], 0),
    "show-run.txt": ("store", ["show", "timeout.json"], 0),
    "show-diff.txt": ("store", ["show", "timeout.json", "barrier.json"], 1),
    "show-diff.json": ("store", ["show", "timeout.json", "barrier.json",
                                 "--format", "json"], 1),
    "status.txt": ("campaign", ["--status", "heartbeats"], 0),
}


def _run(cli, argv, store_dir):
    """``(exit code, stdout)`` of one CLI call made from the fixture."""
    out = io.StringIO()
    cwd = os.getcwd()
    real_time = time.time
    os.chdir(FIXTURE)
    try:
        with contextlib.redirect_stdout(out):
            if cli == "store":
                code = store_main(["--store", str(store_dir), *argv])
            else:
                time.time = lambda: STATUS_NOW
                code = campaign_main(argv)
    finally:
        time.time = real_time
        os.chdir(cwd)
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_the_cli_prints_the_pinned_bytes(name, tmp_path):
    cli, argv, expected_code = CASES[name]
    code, out = _run(cli, argv, tmp_path / "store")
    assert out == (EXPECTED / name).read_text(encoding="utf-8")
    assert code == expected_code
    # Reading files never creates a store.
    assert not (tmp_path / "store").exists()


if __name__ == "__main__":
    import tempfile

    EXPECTED.mkdir(exist_ok=True)
    store_dir = Path(tempfile.mkdtemp()) / "store"
    for name, (cli, argv, _code) in sorted(CASES.items()):
        _code, text = _run(cli, argv, store_dir)
        (EXPECTED / name).write_text(text, encoding="utf-8")
        print(f"wrote {EXPECTED / name} ({len(text)} bytes)", file=sys.stderr)
