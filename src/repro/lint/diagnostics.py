"""Diagnostics: what a lint rule reports and how it is rendered.

One :class:`Diagnostic` is one violation at one source location.  The text
form (``module:line:col: CODE message``) is what ``python -m repro.lint``
prints and what the golden strings in ``tests/unit/test_lint.py`` pin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

#: Engine-level diagnostic code: the file does not parse.  Not a registered
#: rule.
ENGINE_CODE = "RL000"


@dataclass(frozen=True, order=True)
class Diagnostic:
    """One rule violation at one source location."""

    #: Module label, e.g. ``"switches/base.py"`` (posix path relative to the
    #: ``repro`` package root for real files; arbitrary for lint_source).
    module: str
    line: int
    col: int
    #: Rule code (``RL001``...) or :data:`ENGINE_CODE`.
    code: str
    message: str

    def render(self) -> str:
        """The canonical one-line text form."""
        return f"{self.module}:{self.line}:{self.col}: {self.code} {self.message}"


def render_diagnostics(diagnostics: Iterable[Diagnostic]) -> str:
    """All diagnostics, sorted by location, one per line."""
    return "\n".join(diag.render() for diag in sorted(diagnostics))
