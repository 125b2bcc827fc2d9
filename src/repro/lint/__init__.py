"""Reproducibility linter and determinism sanitizer.

Static pass (``python -m repro.lint``): four AST rules (RL001-RL003,
RL006) enforcing the repo's determinism and hot-path invariants, with a
rule catalogue mirroring the technique catalogue.  A rule's documented
``allowed_modules`` is the only exemption; there are no inline
suppressions.

Runtime pass (``python -m repro.lint --sanitize <scenario>``): double-run
event-stream diffing that names the first divergent simulator event, plus
a wall-clock tripwire and a cross-process ``PYTHONHASHSEED`` probe.
"""

from repro.lint.diagnostics import ENGINE_CODE, Diagnostic, render_diagnostics
from repro.lint.engine import (
    default_target,
    iter_python_files,
    lint_file,
    lint_paths,
    lint_source,
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
    "render_diagnostics",
    "default_target",
    "iter_python_files",
    "lint_file",
    "lint_paths",
    "lint_source",
    "RULES",
    "LintRule",
    "ModuleInfo",
    "active_rules",
    "available_rules",
    "get_rule",
    "rule_catalog",
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
