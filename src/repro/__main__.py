"""The command line: ``python -m repro``.

    list              scenarios, fault models, topology families, the figures
    run [axes...]     expand a campaign grid, run its pending cells in parallel
    status DIR        fleet health from a campaign's heartbeat shards
    figure NAME       run one figure or table of the paper at quick scale
    ingest PATH...    put results files, record JSONs or directories in a store
    query [filters]   list stored runs
    show REF [REF]    read one run or results file, or compare two
    verify, gc        re-check every pin and digest; drop dangling entries

One run store serves every subcommand: ``--store DIR``, by default
``runstore/`` (for ``run``, ``runstore/`` next to its ``--out``).  ``run``
emits a cell the store holds instead of simulating it, so re-running a
command resumes it.  ``ingest`` and ``run`` create the store; ``verify``,
``gc`` and ``query`` refuse one that does not exist.  A REF is a digest
prefix, an exact ``cell_id`` (which wins over a prefix), a results
``.jsonl`` or a record ``.json``.  Two runs that differ exit 1, and a
results file against another or a store directory adds the differential
table.  A bad request prints ``error: ...`` to stderr and exits 2.  Quote
a fault axis; the shell dislikes parentheses::

    python -m repro run --scenarios fault-sweep --techniques barrier,general \\
        --faults 'none,ack-loss(probability=0.3),delay-spike(probability=0.1)'
"""

import argparse
import json
import logging
import sys
import textwrap
from pathlib import Path

from repro.analysis.report import format_table
from repro.campaign.grid import CampaignSpec
from repro.campaign.report import (diff_runs, render_report, render_run,
                                   render_run_diff, render_status)
from repro.campaign.runner import CampaignRunner
from repro.experiments.figures import FIGURES
from repro.faults import available_faults, get_fault
from repro.faults.plan import split_outside_parens
from repro.scenarios import SCENARIOS, TOPOLOGY_FAMILIES, available_scenarios
from repro.store.store import RunStore, StoreError

logger = logging.getLogger("repro.campaign")


def setup_logging(verbose: bool = False, quiet: bool = False) -> None:
    """Progress goes to stderr through the ``repro`` logger hierarchy;
    reports and tables stay on stdout (scripts and CI pipe them)."""
    level = (logging.DEBUG if verbose
             else logging.WARNING if quiet else logging.INFO)
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(message)s"))
    root = logging.getLogger("repro")
    root.setLevel(level)
    # Idempotent under repeated main() calls (tests): one handler, ever.
    if not any(isinstance(existing, logging.StreamHandler)
               for existing in root.handlers):
        root.addHandler(handler)


def _csv(value: str):
    return [item for item in value.split(",") if item]


def _int_csv(value: str):
    return [int(item) for item in _csv(value)]


def _fault_csv(value: str):
    """Split on commas *outside* parentheses: parameter lists carry their
    own (``none,ack-loss(probability=0.3,spike=2)`` is two entries)."""
    return split_outside_parens(value, ",")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="debug-level progress output")
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="warnings and errors only")
    parser.add_argument("--store", type=Path, default=None, metavar="DIR",
                        help="run-store directory (default: runstore/; for "
                             "run, 'runstore' next to the results file)")
    commands = parser.add_subparsers(dest="command", required=True)
    commands.add_parser("list")

    grid = CampaignSpec()
    run = commands.add_parser("run")
    for axis, kind in (("scenarios", _csv), ("techniques", _csv),
                       ("scales", _int_csv), ("seeds", _int_csv)):
        run.add_argument(f"--{axis}", type=kind, default=getattr(grid, axis),
                         help=f"comma-separated {axis}")
    run.add_argument("--faults", type=_fault_csv, default=grid.faults,
                     help="comma-separated fault plans, e.g. 'none,ack-loss("
                          "probability=0.3)' (default: each scenario's own)")
    run.add_argument("--recovery", type=_fault_csv, default=grid.recoveries,
                     dest="recoveries", help="comma-separated recovery "
                     "policies, e.g. 'off,on' (default: each scenario's own)")
    run.add_argument("--topology", default=grid.topology,
                     help=f"topology family ({', '.join(TOPOLOGY_FAMILIES)}, "
                          "or 'auto' for each scenario's default)")
    run.add_argument("--flows", type=int, default=grid.flow_count,
                     help="flows per cell")
    run.add_argument("--workers", type=int, default=None,
                     help="worker processes (default: min(cpu, 8))")
    run.add_argument("--trace", action="store_true",
                     help="arm rule-lifecycle tracing on every cell and write "
                          "its Chrome-trace shard to 'traces' next to --out")
    run.add_argument("--out", type=Path, default="campaign-results.jsonl",
                     help="JSON-lines results file, rewritten: a line a cell")
    run.add_argument("--no-report", action="store_true",
                     help="skip the aggregated report after the run")

    commands.add_parser("status").add_argument(
        "dir", type=Path, help="the results directory, the results file, or "
                               "the heartbeats directory")
    commands.add_parser("figure").add_argument("name", choices=sorted(FIGURES))

    commands.add_parser("ingest").add_argument(
        "paths", type=Path, nargs="+", help="campaign .jsonl results, "
        "RunRecord .json payloads, or directories of either")
    query = commands.add_parser("query")
    query.add_argument("--technique")
    query.add_argument("--scenario")
    query.add_argument("--fault", help="fault plan ('none': fault-free)")
    query.add_argument("--outcome", help="ok / incomplete")
    show = commands.add_parser("show")
    show.add_argument("ref", help="digest prefix, cell_id, results .jsonl "
                                  "or record .json")
    show.add_argument("other", nargs="?", help="a second run, or a results "
                      "file or store directory as a results file's baseline")
    for command in (query, show):
        command.add_argument("--format", choices=("text", "json"),
                             default="text")
    commands.add_parser("verify")
    commands.add_parser("gc")
    return parser


def _store(args: argparse.Namespace, existing: bool = False) -> RunStore:
    """The ``--store`` of a store command; with ``existing``, a missing
    root is refused, so a mistyped path never passes for a healthy store."""
    store = RunStore(args.store or Path("runstore"))
    if existing and not store.root.is_dir():
        raise StoreError(f"no run store at {store.root}")
    return store


def cmd_list(args: argparse.Namespace) -> int:
    rows = [[name, SCENARIOS[name].default_topology,
             SCENARIOS[name].description] for name in available_scenarios()]
    print(format_table(["scenario", "default topology", "description"], rows,
                       title="Registered scenarios"))
    print()
    rows = [[name, get_fault(name).layer,
             (get_fault(name).__doc__ or "").strip().split("\n")[0]]
            for name in available_faults()]
    print(format_table(["fault", "layer", "description"], rows,
                       title="Registered fault models (--faults axis)"))
    print()
    print("topology families:", ", ".join(TOPOLOGY_FAMILIES))
    print()
    print("The paper's figures and tables (figure NAME runs one)")
    for figure in FIGURES.values():
        title, body = figure.claim.split("\n", 1)
        print(f"{figure.name}: {title}")
        print(textwrap.fill(" ".join(body.split()), width=78,
                            initial_indent="    ", subsequent_indent="    "))
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    spec = CampaignSpec(
        scenarios=args.scenarios, techniques=args.techniques,
        scales=args.scales, seeds=args.seeds, faults=args.faults,
        recoveries=args.recoveries, topology=args.topology,
        flow_count=args.flows, trace=args.trace)
    spec.validate()
    cache = args.store or args.out.parent / "runstore"
    runner = CampaignRunner(spec, args.out, max_workers=args.workers,
                            cache=RunStore(cache))
    logger.info(
        "campaign: %d cells (%d scenarios x %d techniques x %d faults "
        "x %d recoveries x %d scales x %d seeds), %d workers -> %s",
        len(spec.cells()), len(spec.scenarios), len(spec.techniques),
        len(spec.faults), len(spec.recoveries), len(spec.scales),
        len(spec.seeds), runner.max_workers, args.out)
    if runner.trace_dir is not None:
        logger.info("tracing armed: shards -> %s", runner.trace_dir)
    logger.info("heartbeats -> %s (watch live: python -m repro status %s)",
                runner.heartbeat_dir, args.out)
    logger.info("run store: %s (cells with digest-verified records there "
                "are not re-simulated)", cache)
    outcome = runner.run()
    logger.info("done: ran %d, cached %d (emitted from store), failed %d",
                outcome.ran, outcome.cached, outcome.failed)
    if not args.no_report:
        print()
        print(render_report(args.out, cached=outcome.cached))
    return 1 if outcome.failed else 0


def cmd_status(args: argparse.Namespace) -> int:
    print(render_status(args.dir))
    return 0


def cmd_figure(args: argparse.Namespace) -> int:
    figure = FIGURES[args.name]
    print(figure.view(figure.run()))
    return 0


def cmd_ingest(args: argparse.Namespace) -> int:
    store = _store(args)
    for path in args.paths:
        print(f"{path}: {store.ingest(path).describe()}")
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    store = _store(args, existing=True)
    rows = store.query(technique=args.technique, scenario=args.scenario,
                       fault=args.fault, outcome=args.outcome)
    if args.format == "json":
        print(json.dumps(rows, indent=1, sort_keys=True))
    elif not rows:
        print(f"(no stored runs match under {store.root})")
    else:
        headers = ["digest", "scenario", "technique", "fault", "recovery",
                   "outcome", "seed", "parts", "artifacts"]
        print(format_table(
            headers, [[row.get(key) for key in headers] for row in rows],
            title=f"Run store — {store.root} ({len(rows)} runs)"))
    return 0


def cmd_show(args: argparse.Namespace) -> int:
    store = _store(args)
    refs = [store.read(ref) for ref in (args.ref, args.other) if ref]
    if len(refs) == 1 and args.format == "json":
        print(json.dumps(refs[0].raw, indent=1, sort_keys=True))
        return 0
    if all(ref.run is not None for ref in refs):
        if len(refs) == 1:
            print(render_run(refs[0].run))
            return 0
        diff = diff_runs(refs[0].run, refs[1].run)
        print(json.dumps(diff.as_dict(), indent=1, sort_keys=True)
              if args.format == "json" else render_run_diff(diff))
        return 0 if diff.identical else 1
    results = Path(refs[0].ref)
    if (results.suffix != ".jsonl" or refs[-1].cells is None
            or args.format == "json"):
        raise StoreError(
            f"cannot show {' against '.join(ref.ref for ref in refs)}: "
            "compare two runs, or a results file with another or with a "
            "store directory (as text)")
    print(render_report(results, refs[1] if len(refs) == 2 else None))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    store = _store(args, existing=True)
    problems = store.verify()
    count = len(store.digests())
    for problem in problems:
        print(problem)
    print(f"store corrupt: {len(problems)} problems across {count} objects"
          if problems else f"store ok: {count} objects, all pins verified")
    return 1 if problems else 0


def cmd_gc(args: argparse.Namespace) -> int:
    print(_store(args, existing=True).gc().describe())
    return 0


COMMANDS = {"list": cmd_list, "run": cmd_run, "status": cmd_status,
            "figure": cmd_figure, "ingest": cmd_ingest, "query": cmd_query,
            "show": cmd_show, "verify": cmd_verify, "gc": cmd_gc}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    setup_logging(verbose=args.verbose, quiet=args.quiet)
    try:
        return COMMANDS[args.command](args)
    except ValueError as error:  # a StoreError is one
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
