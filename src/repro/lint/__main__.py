"""``python -m repro.lint`` — the CLI for the static pass and the sanitizer.

Exit codes: 0 clean, 1 findings/divergence, 2 usage or engine failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.lint.diagnostics import render_diagnostics
from repro.lint.engine import default_target, iter_python_files, lint_paths
from repro.lint.rules import available_rules, rule_catalog


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="Reproducibility linter + determinism sanitizer for the "
                    "repro package.",
    )
    parser.add_argument("paths", nargs="*", type=Path,
                        help="files or directories to lint "
                             "(default: the installed repro package)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalog and exit")
    parser.add_argument("--sanitize", metavar="SCENARIO", default=None,
                        help="run the determinism sanitizer on a registered "
                             "scenario instead of linting")
    parser.add_argument("--technique", default="general",
                        help="acknowledgment technique for --sanitize")
    parser.add_argument("--seed", type=int, default=7,
                        help="base seed for --sanitize")
    parser.add_argument("--flows", type=int, default=2,
                        help="flow count for --sanitize (keep it small)")
    parser.add_argument("--no-hashseed-probe", action="store_true",
                        help="skip the two-subprocess PYTHONHASHSEED probe")
    parser.add_argument("--sanitize-worker", action="store_true",
                        help=argparse.SUPPRESS)
    return parser


def _run_lint(args: argparse.Namespace) -> int:
    paths = args.paths or [default_target()]
    missing = [path for path in paths if not Path(path).exists()]
    if missing:
        print(f"error: no such path(s): "
              f"{', '.join(str(p) for p in missing)}", file=sys.stderr)
        return 2
    diagnostics = lint_paths(paths)
    if diagnostics:
        print(render_diagnostics(diagnostics))
        print(f"{len(diagnostics)} finding(s) in {len(paths)} target(s)")
        return 1
    print(f"clean: {len(iter_python_files(paths))} file(s), "
          f"{len(available_rules())} rule(s)")
    return 0


def _run_list_rules() -> int:
    lines = []
    for row in rule_catalog():
        lines.append(f"{row['code']}  {row['name']}")
        lines.append(f"       invariant: {row['invariant']}")
        if row["rationale"]:
            lines.append(f"       rationale: {row['rationale']}")
    print("\n".join(lines))
    return 0


def _run_sanitize(args: argparse.Namespace) -> int:
    from repro.lint.sanitizer import sanitize_scenario
    from repro.scenarios.base import ScenarioParams

    params = ScenarioParams(flow_count=args.flows, seed=args.seed,
                            max_update_duration=5.0)
    try:
        report = sanitize_scenario(
            args.sanitize, args.technique, params,
            hashseed_probe=not args.no_hashseed_probe,
        )
    except KeyError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(report.render())
    return 0 if report.ok else 1


def _run_sanitize_worker() -> int:
    from repro.lint.sanitizer import run_sanitize_worker

    payload = json.loads(sys.stdin.read())
    print(json.dumps(run_sanitize_worker(payload)))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.sanitize_worker:
        return _run_sanitize_worker()
    if args.list_rules:
        return _run_list_rules()
    if args.sanitize is not None:
        return _run_sanitize(args)
    return _run_lint(args)


if __name__ == "__main__":
    sys.exit(main())
