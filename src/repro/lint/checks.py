"""The built-in lint rules: the repo's determinism + hot-path invariants.

Each rule targets a bug class this repository has actually shipped (or is
one refactor away from shipping):

* RL001 — the PR 2 ``SeededRandom.fork`` bug: ``hash()`` on strings is
  PYTHONHASHSEED-randomized, so hash-derived values silently vary per
  process.
* RL002 — wall-clock/ambient entropy in simulation paths breaks the
  byte-identical-digests contract every result pin relies on.
* RL003 — set iteration order follows the randomized string hash; anything
  it feeds (scheduling, serialization, digests) varies run to run.
* RL006 — hot-path classes without ``__slots__`` cost dict allocations in
  the kernel loop the PR 2 rewrite paid to remove.
RL004, RL005 and RL007 are retired codes and are not reused: ``sim.tracer``
is ``None`` on a bare run, so an unguarded emit fails every bare test run;
the disarmed ``SessionSpec.config()`` is pinned by a test; and defining a
technique/fault/scenario/rule subclass with its key *is* registering it, so
there is no decorator left to forget.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Set

from repro.lint.diagnostics import Diagnostic
from repro.lint.rules import LintRule, ModuleInfo


def _name_of(node: ast.AST) -> Optional[str]:
    """The identifier a ``Name`` or dotted ``Attribute`` ends in."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


class HashDerivedValues(LintRule):
    """RL001: no ``hash()``/``id()``-derived values."""

    code = "RL001"
    name = "hash-derived-value"
    invariant = ("no hash()/id()-derived values outside __hash__ "
                 "implementations")
    rationale = ("hash() on strings is PYTHONHASHSEED-randomized and id() is "
                 "an address: both vary per process, so seeds/ids derived "
                 "from them silently break run-to-run reproducibility (the "
                 "PR 2 SeededRandom.fork bug). Use zlib.crc32 or explicit "
                 "counters.")

    def check(self, info: ModuleInfo) -> Iterator[Diagnostic]:
        for node in info.walk(ast.Call):
            func = node.func
            if not (isinstance(func, ast.Name) and func.id in ("hash", "id")):
                continue
            enclosing = info.enclosing_function(node)
            if enclosing is not None and enclosing.name == "__hash__":
                # In-process dict/set hashing is what __hash__ is *for*; the
                # hazard is persisting or seeding from the value.
                continue
            yield self.diagnostic(
                info, node,
                f"{func.id}() yields process-dependent values "
                "(PYTHONHASHSEED / object addresses); derive stable values "
                "via zlib.crc32(...) or an explicit counter",
            )


#: Wall-clock / entropy call sites banned outside RL002's allowlist.
_AMBIENT_ATTR_CALLS: Dict[str, Set[str]] = {
    "time": {"time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
             "perf_counter_ns", "localtime", "gmtime", "strftime", "ctime"},
    "os": {"urandom", "getrandom"},
    "datetime": {"now", "utcnow", "today"},
}
#: Modules where *every* attribute call is ambient entropy.
_AMBIENT_MODULES = ("uuid", "secrets")
#: The one sanctioned use of the stdlib ``random`` module: constructing an
#: explicitly seeded generator (``random.Random(seed)``), which is what
#: :class:`repro.sim.rng.SeededRandom` and the topology generators do.
_RANDOM_ALLOWED = {"Random"}


class AmbientEntropy(LintRule):
    """RL002: no wall-clock or ambient entropy in simulation paths."""

    code = "RL002"
    name = "ambient-entropy"
    invariant = ("no wall-clock/ambient entropy (time.*, datetime.now, "
                 "random.*, os.urandom, uuid, secrets) in simulation paths")
    rationale = ("results must be a pure function of the seed: stochastic "
                 "behaviour routes through SeededRandom, time through "
                 "Simulator.now. The modules that measure wall time by "
                 "design are allowlisted: the sim-profiler (attribution "
                 "only — nothing it reads feeds back into simulation "
                 "state) and the campaign heartbeat writer every other "
                 "campaign module routes clock reads through.")
    allowed_modules = ("obs/profiler.py", "campaign/heartbeat.py")

    def _flag(self, info: ModuleInfo, node: ast.AST,
              what: str) -> Diagnostic:
        return self.diagnostic(
            info, node,
            f"{what} is ambient (non-seeded) input; route randomness "
            "through SeededRandom and time through Simulator.now",
        )

    def check(self, info: ModuleInfo) -> Iterator[Diagnostic]:
        for node in info.walk(ast.Call):
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            owner = _name_of(func.value)
            if owner is None:
                continue
            if owner == "random" and func.attr not in _RANDOM_ALLOWED:
                yield self._flag(info, node, f"random.{func.attr}()")
            elif owner in _AMBIENT_MODULES:
                yield self._flag(info, node, f"{owner}.{func.attr}()")
            elif func.attr in _AMBIENT_ATTR_CALLS.get(owner, ()):
                yield self._flag(info, node, f"{owner}.{func.attr}()")
        # Importing the banned callables unqualified would dodge the call
        # check above, so flag the import itself.
        for node in info.walk(ast.ImportFrom):
            module = (node.module or "").split(".")[0]
            banned: Set[str] = set()
            if module in _AMBIENT_MODULES:
                banned = {alias.name for alias in node.names}
            elif module == "random":
                banned = {alias.name for alias in node.names
                          if alias.name not in _RANDOM_ALLOWED}
            elif module in _AMBIENT_ATTR_CALLS:
                banned = {alias.name for alias in node.names
                          if alias.name in _AMBIENT_ATTR_CALLS[module]}
            if banned:
                names = ", ".join(sorted(banned))
                yield self._flag(info, node, f"from {module} import {names}")


_SET_METHODS = {"union", "intersection", "difference", "symmetric_difference"}
_SET_BINOPS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)


def _is_set_expr(node: ast.AST) -> bool:
    """Whether ``node`` syntactically produces an (unordered) set."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name) and node.func.id in ("set", "frozenset"):
            return True
        if (isinstance(node.func, ast.Attribute)
                and node.func.attr in _SET_METHODS
                and _is_set_expr(node.func.value)):
            return True
    if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_BINOPS):
        return _is_set_expr(node.left) or _is_set_expr(node.right)
    return False


class UnorderedIteration(LintRule):
    """RL003: no iteration over bare sets without an explicit sort."""

    code = "RL003"
    name = "unordered-iteration"
    invariant = ("iteration over set expressions must go through "
                 "sorted(...) before feeding schedules, serializers or "
                 "digests")
    rationale = ("set iteration order follows the per-process randomized "
                 "string hash, so loop bodies run — and emit events, build "
                 "dicts, serialize keys — in a different order every "
                 "process (the Match.intersection field-order hazard).")

    def check(self, info: ModuleInfo) -> Iterator[Diagnostic]:
        message = ("iterating a set is unordered across processes; wrap the "
                   "expression in sorted(...)")
        for node in info.walk(ast.For):
            if _is_set_expr(node.iter):
                yield self.diagnostic(info, node.iter, message)
        for node in info.walk(ast.ListComp, ast.SetComp, ast.DictComp,
                              ast.GeneratorExp):
            for generator in node.generators:
                if _is_set_expr(generator.iter):
                    yield self.diagnostic(info, generator.iter, message)
        for node in info.walk(ast.Call):
            if (isinstance(node.func, ast.Name)
                    and node.func.id in ("list", "tuple", "enumerate")
                    and node.args and _is_set_expr(node.args[0])):
                yield self.diagnostic(
                    info, node.args[0],
                    f"{node.func.id}() over a set captures an unordered "
                    "snapshot; wrap the set in sorted(...)",
                )


#: Hot-path modules (relative to the repro package root) where per-instance
#: dicts are measurable: the kernel loop, packets, links, flow tables.
_HOT_MODULES = ("sim/", "packet/", "net/link.py", "openflow/flowtable.py")
#: Base-class names whose subclasses carry no instance dict worth slotting.
_SLOTS_EXEMPT_BASES = {"Exception", "BaseException", "Protocol", "Enum",
                       "IntEnum", "Flag", "IntFlag", "NamedTuple"}


def _has_dataclass_decorator(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if _name_of(target) == "dataclass":
            return True
    return False


def _declares_slots(node: ast.ClassDef) -> bool:
    for statement in node.body:
        if isinstance(statement, ast.Assign):
            if any(isinstance(t, ast.Name) and t.id == "__slots__"
                   for t in statement.targets):
                return True
        if (isinstance(statement, ast.AnnAssign)
                and isinstance(statement.target, ast.Name)
                and statement.target.id == "__slots__"):
            return True
    return False


class MissingSlots(LintRule):
    """RL006: hot-path classes must declare ``__slots__``."""

    code = "RL006"
    name = "missing-slots"
    invariant = ("classes in hot-path modules (sim/, packet/, net/link.py, "
                 "openflow/flowtable.py) declare __slots__")
    rationale = ("the kernel dispatches millions of events through these "
                 "objects; a per-instance __dict__ costs allocation and "
                 "cache misses the PR 2 fast-path rewrite paid to remove. "
                 "Exceptions, Protocols, Enums and dataclasses are exempt.")

    def check(self, info: ModuleInfo) -> Iterator[Diagnostic]:
        if not info.in_module(*_HOT_MODULES):
            return
        for node in info.walk(ast.ClassDef):
            if _declares_slots(node) or _has_dataclass_decorator(node):
                continue
            base_names = [_name_of(base) for base in node.bases]
            if any(name in _SLOTS_EXEMPT_BASES for name in base_names if name):
                continue
            if any(name and (name.endswith("Error")
                             or name.endswith("Exception")
                             or name.endswith("Warning"))
                   for name in base_names):
                continue
            yield self.diagnostic(
                info, node,
                f"class {node.name} lives in a hot-path module but declares "
                "no __slots__ (per-instance dicts in the kernel loop)",
            )
