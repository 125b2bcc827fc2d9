"""The run-store CLI: ``python -m repro.store``.

Subcommands (all against ``--store DIR``, default ``runstore/``)::

    ingest PATH...        ingest results files / record JSONs / directories
    query [filters]       list stored runs (technique/scenario/fault/outcome)
    show DIGEST           dump one stored object
    diff A B              differential run/trace analytics between two runs
    verify                re-check every content pin and outcome digest
    gc                    drop dangling index entries / orphaned artifacts

``A`` and ``B`` of ``diff`` are digest prefixes in the store or paths to
full-record ``.json`` files.  A store is also the campaign runner's memory
(``campaign run --cache``, by default ``runstore/`` next to its ``--out``):
cells whose spec encoding already has a digest-verified record are emitted
from the store instead of re-simulated, and every finished cell is put in.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.analysis.diff import diff_runs, render_run_diff
from repro.analysis.report import format_table
from repro.store.store import RunStore, StoreError, diff_inputs

#: Columns of the ``query`` table.
QUERY_HEADERS = ["digest", "scenario", "technique", "fault", "recovery",
                 "outcome", "seed", "parts", "artifacts"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.store",
        description="Content-addressed run store and differential analytics.",
    )
    parser.add_argument("--store", type=Path, default=Path("runstore"),
                        metavar="DIR", help="store root (default: runstore/)")
    commands = parser.add_subparsers(dest="command", required=True)

    ingest = commands.add_parser(
        "ingest", help="ingest results files, record JSONs or directories")
    ingest.add_argument("paths", type=Path, nargs="+",
                        help="campaign .jsonl results, RunRecord .json "
                             "payloads, or directories of either")

    query = commands.add_parser("query", help="list stored runs")
    query.add_argument("--technique", default=None)
    query.add_argument("--scenario", default=None)
    query.add_argument("--fault", default=None,
                       help="fault-plan string ('none' for fault-free runs)")
    query.add_argument("--outcome", default=None,
                       help="ok / incomplete")
    query.add_argument("--format", choices=("text", "json"), default="text")

    show = commands.add_parser("show", help="dump one stored object")
    show.add_argument("digest", help="digest or unique prefix")

    diff = commands.add_parser(
        "diff", help="compare two runs (first divergent lifecycle event, "
                     "activation-gap/drop/recovery deltas)")
    diff.add_argument("left", help="digest prefix or record .json path")
    diff.add_argument("right", help="digest prefix or record .json path")
    diff.add_argument("--format", choices=("text", "json"), default="text")

    commands.add_parser("verify", help="re-check content pins and digests")
    commands.add_parser("gc", help="drop dangling index/artifact entries")
    return parser


def cmd_ingest(store: RunStore, args: argparse.Namespace) -> int:
    for path in args.paths:
        stats = store.ingest(path)
        print(f"{path}: {stats.describe()}")
    return 0


def cmd_query(store: RunStore, args: argparse.Namespace) -> int:
    rows = store.query(technique=args.technique, scenario=args.scenario,
                       fault=args.fault, outcome=args.outcome)
    if args.format == "json":
        print(json.dumps(rows, indent=1, sort_keys=True))
        return 0
    if not rows:
        print(f"(no stored runs match under {store.root})")
        return 0
    table_rows = [[row.get(key) for key in
                   ("digest", "scenario", "technique", "fault", "recovery",
                    "outcome", "seed", "parts", "artifacts")]
                  for row in rows]
    print(format_table(QUERY_HEADERS, table_rows,
                       title=f"Run store — {store.root} ({len(rows)} runs)"))
    return 0


def cmd_show(store: RunStore, args: argparse.Namespace) -> int:
    digest = store.resolve(args.digest)
    print(json.dumps(store.load(digest), indent=1, sort_keys=True))
    return 0


def cmd_diff(store: RunStore, args: argparse.Namespace) -> int:
    left_label, left_payload, left_trace = diff_inputs(store, args.left)
    right_label, right_payload, right_trace = diff_inputs(store, args.right)
    diff = diff_runs(left_payload, right_payload,
                     left_trace=left_trace, right_trace=right_trace,
                     left_label=left_label, right_label=right_label)
    if args.format == "json":
        print(json.dumps(diff.as_dict(), indent=1, sort_keys=True))
    else:
        print(render_run_diff(diff))
    return 0 if diff.identical else 1


def cmd_verify(store: RunStore) -> int:
    problems = store.verify()
    count = len(store.digests())
    if not problems:
        print(f"store ok: {count} objects, all pins verified")
        return 0
    for problem in problems:
        print(problem)
    print(f"store corrupt: {len(problems)} problems across {count} objects")
    return 1


def cmd_gc(store: RunStore) -> int:
    print(store.gc().describe())
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    store = RunStore(args.store)
    try:
        if args.command == "ingest":
            return cmd_ingest(store, args)
        if args.command == "query":
            return cmd_query(store, args)
        if args.command == "show":
            return cmd_show(store, args)
        if args.command == "diff":
            return cmd_diff(store, args)
        if args.command == "verify":
            return cmd_verify(store)
        return cmd_gc(store)
    except StoreError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
