"""The lint-rule catalogue and the rule base class.

Mirrors the acknowledgment-technique catalogue
(:mod:`repro.core.techniques.registry`): a rule is its class, not a branch
in a monolithic checker.  A :class:`LintRule` subclass owns its code, its
invariant, its rationale, and its :meth:`~LintRule.check` implementation;
setting ``code`` in its body registers it, which makes it active in every
entry point — the ``python -m repro.lint`` CLI, the CI JSON gate, and the
self-check test — with no further wiring.

Adding a rule is defining a subclass with a ``code``::

    from repro.lint.rules import LintRule, ModuleInfo

    class NoSpookyConstants(LintRule):
        code = "RL099"
        name = "no-spooky-constants"
        invariant = "magic numbers above 9000 are banned"

        def check(self, info):
            for node in info.walk(ast.Constant):
                ...yield self.diagnostic(info, node, "it's over 9000")...

Registration is per-process and happens at import of
:mod:`repro.lint.checks`, exactly like technique registration happens at
import of :mod:`repro.core.techniques`.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple, Type

from repro.lint.diagnostics import Diagnostic
from repro.registry import Registry

_CODE_RE = re.compile(r"^RL\d{3}$")


@dataclass
class ModuleInfo:
    """One parsed module handed to every rule.

    ``module`` is the rule-facing identity: for real files it is the posix
    path relative to the ``repro`` package root (``"switches/base.py"``), so
    per-rule module allowlists match the same strings everywhere; tests
    linting synthetic sources pick any label they want.
    """

    module: str
    source: str
    tree: ast.Module
    _parents: Optional[Dict[ast.AST, ast.AST]] = field(default=None, repr=False)

    @property
    def parents(self) -> Dict[ast.AST, ast.AST]:
        """``node -> parent`` over the whole tree (built once, lazily)."""
        if self._parents is None:
            parents: Dict[ast.AST, ast.AST] = {}
            for parent in ast.walk(self.tree):
                for child in ast.iter_child_nodes(parent):
                    parents[child] = parent
            self._parents = parents
        return self._parents

    def walk(self, *types: type) -> Iterator[ast.AST]:
        """All nodes of the given types, in document order."""
        for node in ast.walk(self.tree):
            if not types or isinstance(node, types):
                yield node

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        """The parent chain of ``node``, innermost first."""
        parents = self.parents
        current = parents.get(node)
        while current is not None:
            yield current
            current = parents.get(current)

    def enclosing_function(self, node: ast.AST) -> Optional[ast.AST]:
        """The nearest enclosing function/method definition, if any."""
        for ancestor in self.ancestors(node):
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return ancestor
        return None

    def in_module(self, *prefixes: str) -> bool:
        """Whether this module matches any of the path prefixes."""
        return any(self.module == prefix or self.module.startswith(prefix)
                   for prefix in prefixes)


class LintRule:
    """Base class for lint rules; subclasses set the metadata and ``check``.

    ``allowed_modules`` is the rule's *documented* allowlist: module-path
    prefixes (relative to the ``repro`` package root) where the rule does
    not apply — e.g. reading wall time is the job of ``obs/profiler.py``, so
    RL002 excludes it rather than demanding per-line suppressions.
    """

    #: Registry key, ``RL`` + three digits; setting it registers the class.
    code: str = ""
    #: Short kebab-case slug (rule catalog, README table).
    name: str = ""
    #: One-line statement of the enforced invariant.
    invariant: str = ""
    #: Why the invariant exists — which bug class it prevents.
    rationale: str = ""
    #: Module-path prefixes the rule skips entirely (documented exemptions).
    allowed_modules: Tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if "code" not in cls.__dict__:
            return
        if not _CODE_RE.match(cls.code):
            raise ValueError(
                f"{cls.__name__}.code must look like 'RL001', not {cls.code!r}"
            )
        if not cls.name:
            raise ValueError(f"{cls.__name__} must set a non-empty name")
        RULES.add(cls.code, cls)

    def applies_to(self, info: ModuleInfo) -> bool:
        """Whether the rule runs on ``info`` at all (allowlist gate)."""
        return not info.in_module(*self.allowed_modules)

    def check(self, info: ModuleInfo) -> Iterator[Diagnostic]:
        """Yield one :class:`Diagnostic` per violation found in ``info``."""
        raise NotImplementedError

    def diagnostic(self, info: ModuleInfo, node: ast.AST,
                   message: str) -> Diagnostic:
        """A diagnostic of this rule anchored at ``node``."""
        return Diagnostic(
            module=info.module,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            code=self.code,
            message=message,
        )


#: Rule code -> :class:`LintRule` subclass.
RULES = Registry("rule")


def get_rule(code: str) -> Type[LintRule]:
    """Look a rule class up by code."""
    return RULES[code]


def available_rules() -> List[str]:
    """All registered rule codes, sorted."""
    return RULES.names()


def active_rules(select: Optional[List[str]] = None) -> List[LintRule]:
    """Instances of the rules to run (all, or the selected codes)."""
    return [RULES[code]() for code in
            (available_rules() if select is None else select)]


def rule_catalog() -> List[Dict[str, str]]:
    """Metadata rows for ``--list-rules`` and the README table."""
    return [
        {
            "code": rule.code,
            "name": rule.name,
            "invariant": rule.invariant,
            "rationale": rule.rationale,
        }
        for rule in active_rules()
    ]
