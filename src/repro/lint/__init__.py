"""Reproducibility linter and determinism sanitizer.

Static pass (``python -m repro.lint``): four AST rules (RL001-RL003,
RL006) enforcing the repo's determinism and hot-path invariants, with a
rule catalogue mirroring the technique catalogue and a
justified-suppression policy (``# repro: noqa(RL###): <why>``).

Runtime pass (``python -m repro.lint --sanitize <scenario>``): double-run
event-stream diffing that names the first divergent simulator event, plus
a wall-clock tripwire and a cross-process ``PYTHONHASHSEED`` probe.
"""

from repro.lint.diagnostics import (
    ENGINE_CODE,
    Diagnostic,
    count_by_code,
    diagnostics_payload,
    render_diagnostics,
)
from repro.lint.engine import (
    Suppression,
    default_target,
    iter_python_files,
    lint_file,
    lint_paths,
    lint_source,
    parse_suppressions,
)
from repro.lint.rules import (
    RULES,
    LintRule,
    ModuleInfo,
    active_rules,
    available_rules,
    get_rule,
    rule_catalog,
)
from repro.lint.sanitizer import (
    CHAOS_HOOKS,
    Divergence,
    RecordedRun,
    SanitizeReport,
    WallClockLeakError,
    first_divergence,
    record_session,
    sanitize_scenario,
    sanitize_spec,
    wall_clock_tripwire,
)

__all__ = [
    "ENGINE_CODE",
    "Diagnostic",
    "count_by_code",
    "diagnostics_payload",
    "render_diagnostics",
    "Suppression",
    "default_target",
    "iter_python_files",
    "lint_file",
    "lint_paths",
    "lint_source",
    "parse_suppressions",
    "RULES",
    "LintRule",
    "ModuleInfo",
    "active_rules",
    "available_rules",
    "get_rule",
    "rule_catalog",
    "CHAOS_HOOKS",
    "Divergence",
    "RecordedRun",
    "SanitizeReport",
    "WallClockLeakError",
    "first_divergence",
    "record_session",
    "sanitize_scenario",
    "sanitize_spec",
    "wall_clock_tripwire",
]
