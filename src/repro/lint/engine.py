"""The lint engine: walking, parsing, and the public API.

There is no inline suppression: a flagged line is either fixed or its
module is on the rule's documented ``allowed_modules`` (see
:class:`~repro.lint.rules.LintRule`).  A file that does not parse is
reported as :data:`~repro.lint.diagnostics.ENGINE_CODE` (RL000).
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, List, Optional

# Importing the checks module is what registers the built-in rules.
import repro.lint.checks  # noqa: F401  (imported for registration side effect)
from repro.lint.diagnostics import ENGINE_CODE, Diagnostic
from repro.lint.rules import ModuleInfo, active_rules


def lint_source(source: str, module: str = "<string>") -> List[Diagnostic]:
    """Lint one source text under the label ``module``; sorted diagnostics."""
    try:
        tree = ast.parse(source)
    except SyntaxError as error:
        return [Diagnostic(module=module, line=error.lineno or 1,
                           col=error.offset or 0, code=ENGINE_CODE,
                           message=f"syntax error: {error.msg}")]
    info = ModuleInfo(module=module, source=source, tree=tree)
    return sorted(diag for rule in active_rules() if rule.applies_to(info)
                  for diag in rule.check(info))


def _module_label(path: Path) -> str:
    """The rule-facing module label of ``path``.

    For files under a directory named ``repro`` the label is the posix path
    relative to that package root (``"switches/base.py"``), so the per-rule
    allowlists match regardless of where the tree is checked out.
    """
    resolved = path.resolve()
    for parent in resolved.parents:
        if parent.name == "repro":
            return resolved.relative_to(parent).as_posix()
    return resolved.name


def lint_file(path: Path, module: Optional[str] = None) -> List[Diagnostic]:
    """Lint one file (module label derived from its path unless given)."""
    source = Path(path).read_text(encoding="utf-8")
    return lint_source(source, module=module or _module_label(Path(path)))


def iter_python_files(paths: Iterable[Path]) -> List[Path]:
    """Expand files/directories into a sorted list of ``*.py`` files."""
    files: List[Path] = []
    for entry in (Path(path) for path in paths):
        if entry.is_dir():
            files.extend(sorted(entry.rglob("*.py")))
        else:
            files.append(entry)
    return files


def lint_paths(paths: Iterable[Path]) -> List[Diagnostic]:
    """Lint every ``*.py`` file under ``paths``; returns sorted diagnostics."""
    diagnostics: List[Diagnostic] = []
    for file_path in iter_python_files(paths):
        diagnostics.extend(lint_file(file_path))
    return sorted(diagnostics)


def default_target() -> Path:
    """The installed ``repro`` package directory — the default lint target."""
    return Path(__file__).resolve().parents[1]
