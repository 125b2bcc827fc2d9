"""The campaign CLI: ``python -m repro.campaign``.

Subcommands::

    list                       show scenarios, topology families, fault models
    run [axes...]              expand a grid, run pending cells in parallel

plus the live fleet monitor — usable *while* a campaign runs, since it only
reads the per-worker heartbeat shards::

    python -m repro.campaign --status results/

Fault sweeps add a ``--faults`` axis of fault-plan strings (quote them, the
shell dislikes parentheses)::

    python -m repro.campaign run --scenarios fault-sweep \
        --techniques barrier,general,no-wait \
        --faults 'none,ack-loss(probability=0.3),delay-spike(probability=0.1)'

and the report then includes the per-technique correctness-under-fault table.

``run`` writes one line per grid cell to its results file and keeps every
finished cell in a run store (``--cache``, by default ``runstore/`` next to
``--out``): re-invoking the same command resumes an interrupted campaign,
simulating only the cells the store lacks.  ``run`` prints the campaign
report when it finishes; ``python -m repro.store show RESULTS [BASELINE]``
prints it again later, with the differential table against a baseline.
Every axis defaults to :class:`~repro.campaign.grid.CampaignSpec`'s.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from repro.analysis.report import format_table
from repro.campaign.grid import CampaignSpec
from repro.campaign.report import render_report
from repro.campaign.runner import CampaignRunner
from repro.faults import available_faults, get_fault
from repro.faults.plan import split_outside_parens
from repro.scenarios import SCENARIOS, TOPOLOGY_FAMILIES, available_scenarios

DEFAULT_RESULTS = "campaign-results.jsonl"

logger = logging.getLogger("repro.campaign")


def setup_logging(verbose: bool = False, quiet: bool = False) -> None:
    """Configure progress logging for the CLI.

    Progress and status go to stderr through the ``repro.campaign`` logger
    hierarchy; report tables stay on stdout (scripts and CI pipe them).
    """
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
    """Split a fault axis on commas *outside* parentheses.

    ``none,ack-loss(probability=0.3,spike=2)`` is two entries, not three —
    parameter lists carry their own commas.
    """
    return split_outside_parens(value, ",")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.campaign",
        description="Scenario campaign runner (parallel parameter sweeps).",
    )
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="debug-level progress output")
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="warnings and errors only")
    parser.add_argument("--status", type=Path, default=None, metavar="DIR",
                        help="render live fleet health from a campaign's "
                             "heartbeat shards (pass the results directory, "
                             "the results file, or the heartbeats directory) "
                             "and exit; safe while the campaign is running")
    commands = parser.add_subparsers(dest="command", required=False)

    commands.add_parser("list", help="list scenarios and topology families")

    grid = CampaignSpec()
    run = commands.add_parser("run", help="run a (scenario x technique x "
                                          "scale x seed) grid")
    run.add_argument("--scenarios", type=_csv, default=grid.scenarios,
                     help="comma-separated scenario names")
    run.add_argument("--techniques", type=_csv, default=grid.techniques,
                     help="comma-separated technique names")
    run.add_argument("--scales", type=_int_csv, default=grid.scales,
                     help="comma-separated integer scales")
    run.add_argument("--seeds", type=_int_csv, default=grid.seeds,
                     help="comma-separated seeds")
    run.add_argument("--faults", type=_fault_csv, default=grid.faults,
                     help="comma-separated fault-plan strings, e.g. "
                          "'none,ack-loss(probability=0.3)' (quote the "
                          "parentheses; 'none' keeps a fault-free control "
                          "group; default: each scenario's own faults, if any)")
    run.add_argument("--recovery", type=_fault_csv, default=grid.recoveries,
                     dest="recoveries",
                     help="comma-separated recovery-policy strings, e.g. "
                          "'off,on' or 'off,on(max_attempts=6)' ('off' keeps "
                          "an unrecovered control group; default: each "
                          "scenario's own policy)")
    run.add_argument("--topology", default=grid.topology,
                     help=f"topology family ({', '.join(TOPOLOGY_FAMILIES)}, "
                          "or 'auto' for each scenario's default)")
    run.add_argument("--flows", type=int, default=grid.flow_count,
                     help="flows per cell")
    run.add_argument("--workers", type=int, default=None,
                     help="worker processes (default: min(cpu, 8))")
    run.add_argument("--trace", action="store_true",
                     help="arm rule-lifecycle tracing on every cell and "
                          "write one Chrome-trace shard per cell to "
                          "'traces' next to the results file")
    run.add_argument("--cache", type=Path, default=None, metavar="STORE",
                     help="run-store directory (see python -m repro.store; "
                          "default: 'runstore' next to the results file): "
                          "cells with a digest-verified record there are "
                          "emitted from the store instead of simulated, and "
                          "every finished cell is put into it")
    run.add_argument("--out", type=Path, default=Path(DEFAULT_RESULTS),
                     help="JSON-lines results file (rewritten: one line per "
                          "grid cell)")
    run.add_argument("--quick", action="store_true",
                     help="ignore the axes and run one tiny smoke cell")
    run.add_argument("--no-report", action="store_true",
                     help="skip the aggregated report after the run")

    return parser


def cmd_list() -> int:
    rows = [
        [name, SCENARIOS[name].default_topology, SCENARIOS[name].description]
        for name in available_scenarios()
    ]
    print(format_table(["scenario", "default topology", "description"], rows,
                       title="Registered scenarios"))
    print()
    fault_rows = [
        [name, get_fault(name).layer,
         (get_fault(name).__doc__ or "").strip().split("\n")[0]]
        for name in available_faults()
    ]
    print(format_table(["fault", "layer", "description"], fault_rows,
                       title="Registered fault models (--faults axis)"))
    print()
    print("topology families:", ", ".join(TOPOLOGY_FAMILIES))
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    if args.quick:
        spec = CampaignSpec.quick()
        spec.trace = args.trace
    else:
        spec = CampaignSpec(
            scenarios=args.scenarios,
            techniques=args.techniques,
            scales=args.scales,
            seeds=args.seeds,
            faults=args.faults,
            recoveries=args.recoveries,
            topology=args.topology,
            flow_count=args.flows,
            trace=args.trace,
        )
    spec.validate()
    cache = args.cache or args.out.parent / "runstore"
    runner = CampaignRunner(spec, args.out, max_workers=args.workers,
                            cache=cache)
    cells = spec.cells()
    logger.info(
        "campaign: %d cells (%d scenarios x %d techniques x %d faults "
        "x %d recoveries x %d scales x %d seeds), %d workers -> %s",
        len(cells), len(spec.scenarios), len(spec.techniques),
        len(spec.faults), len(spec.recoveries), len(spec.scales),
        len(spec.seeds), runner.max_workers, args.out,
    )
    if runner.trace_dir is not None:
        logger.info("tracing armed: shards -> %s", runner.trace_dir)
    logger.info("heartbeats -> %s (watch live: python -m repro.campaign "
                "--status %s)", runner.heartbeat_dir, args.out)
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
    from repro.campaign.status import render_status

    print(render_status(args.status))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    setup_logging(verbose=args.verbose, quiet=args.quiet)
    try:
        if args.status is not None:
            return cmd_status(args)
        if args.command is None:
            parser.error("a subcommand (list/run) or --status is required")
        if args.command == "list":
            return cmd_list()
        return cmd_run(args)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
