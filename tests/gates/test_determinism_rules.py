"""The determinism and hot-path rules ``src/repro`` keeps, as tests.

RL001-RL003 are predicates over each module's AST; RL006 inspects the
classes of the imported hot-path modules.  A rule's allowlist sits beside it
and is the only exemption: a flagged line is fixed, or its module goes on
the list with its reason.  RL004, RL005 and RL007 are retired, not reused.
``tests/unit/test_lint.py`` shows each rule flagging its bug and passing
its fix.
"""

import ast
import dataclasses
import enum
import importlib
from functools import lru_cache
from pathlib import Path

import repro

REPRO = Path(repro.__file__).resolve().parent


@lru_cache(maxsize=None)
def _trees():
    """``{module path relative to src/repro: parsed AST}``, every module."""
    return {path.relative_to(REPRO).as_posix(): ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(REPRO.rglob("*.py"))}


def _findings(rule, allowed=()):
    return [f"{module}:{line}: {message}"
            for module, tree in _trees().items() if not module.startswith(allowed)
            for line, message in rule(tree)]


def hash_derived_values(tree, function=None):
    """RL001: no ``hash()``/``id()``-derived values outside ``__hash__``.

    String hashes are ``PYTHONHASHSEED``-randomized and ids are addresses,
    so seeds derived from them vary per process (the ``SeededRandom.fork``
    bug); use ``zlib.crc32`` or a counter.  Hashing in ``__hash__`` is fine.
    ``function`` names the nearest enclosing def.
    """
    found = []
    for node in ast.iter_child_nodes(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("hash", "id") and function != "__hash__"):
            found.append((node.lineno, f"{node.func.id}() yields process-dependent values"))
        found += hash_derived_values(node, node.name if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef)) else function)
    return found


#: RL002's allowlist: measuring wall time is these modules' job, and nothing
#: they read feeds back into simulation state.  Every other campaign module
#: reads the clock through the heartbeat writer.
WALL_CLOCK_MODULES = ("obs/profiler.py", "campaign/heartbeat.py")
#: Wall-clock / entropy callables by module; in ``uuid`` and ``secrets`` all
#: of them are, in ``random`` all but a seeded ``random.Random``.
_AMBIENT_ATTR_CALLS = {
    "time": {"time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
             "perf_counter_ns", "localtime", "gmtime", "strftime", "ctime"},
    "os": {"urandom", "getrandom"},
    "datetime": {"now", "utcnow", "today"},
}


def _ambient(module, names):
    if module in ("uuid", "secrets"):
        return set(names)
    if module == "random":
        return set(names) - {"Random"}
    return set(names) & _AMBIENT_ATTR_CALLS.get(module, set())


def ambient_entropy(tree):
    """RL002: no wall-clock or ambient entropy in simulation paths.

    Results are a pure function of the seed: randomness goes through
    ``SeededRandom``, time through ``Simulator.now``.  An unqualified import
    of a banned callable is flagged too, since it dodges the call check.
    """
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            # The identifier the owner ends in: ``time`` of ``time.time()``.
            owner = getattr(node.func.value, "id", None) or getattr(node.func.value, "attr", None)
            if owner and _ambient(owner, {node.func.attr}):
                found.append((node.lineno, f"{owner}.{node.func.attr}() is ambient input"))
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")[0]
            banned = _ambient(module, {alias.name for alias in node.names})
            if banned:
                found.append((node.lineno, f"from {module} import {sorted(banned)} is ambient"))
    return sorted(found)


_SET_METHODS = {"union", "intersection", "difference", "symmetric_difference"}
_SET_BINOPS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)


def _is_set_expr(node):
    """Whether ``node`` syntactically produces an (unordered) set."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_BINOPS):
        return _is_set_expr(node.left) or _is_set_expr(node.right)
    func = node.func if isinstance(node, ast.Call) else None
    return (isinstance(node, (ast.Set, ast.SetComp))
            or isinstance(func, ast.Name) and func.id in ("set", "frozenset")
            or isinstance(func, ast.Attribute) and func.attr in _SET_METHODS
            and _is_set_expr(func.value))


def unordered_iteration(tree):
    """RL003: iterating a set goes through ``sorted(...)`` first.

    Set order follows the per-process string hash, so whatever the loop
    emits, builds or serializes comes out in a different order every process.
    """
    iterated = []
    for node in ast.walk(tree):
        if isinstance(node, ast.For):
            iterated.append(node.iter)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            iterated.extend(generator.iter for generator in node.generators)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("list", "tuple", "enumerate") and node.args):
            iterated.append(node.args[0])
    return sorted((node.lineno, "iterates a set in hash order")
                  for node in iterated if _is_set_expr(node))


#: RL006's scope (relative to src/repro): the kernel loop dispatches
#: millions of events through these modules' objects.
HOT_PATH = ("sim/", "packet/", "net/link.py", "openflow/flowtable.py")


def classes_defined_in(namespace, module_name):
    return [value for value in namespace.values()
            if isinstance(value, type) and value.__module__ == module_name]


def missing_slots(classes):
    """RL006: hot-path classes declare ``__slots__``, as a per-instance dict
    costs the kernel loop an allocation.  Dataclasses, exceptions, enums and
    protocols are exempt; named tuples already declare ``__slots__ = ()``."""
    return [cls.__qualname__ for cls in classes
            if "__slots__" not in vars(cls) and not dataclasses.is_dataclass(cls)
            and not issubclass(cls, (BaseException, enum.Enum))
            and not vars(cls).get("_is_protocol", False)]


def _hot_path_classes():
    classes = []
    for module in _trees():
        if module.startswith(HOT_PATH):
            name = "repro." + module[:-len(".py")].replace("/", ".").replace(".__init__", "")
            classes += classes_defined_in(vars(importlib.import_module(name)), name)
    return classes


def test_rl001_no_hash_derived_values():
    assert _findings(hash_derived_values) == []


def test_rl002_no_ambient_entropy_outside_its_allowlist():
    assert _findings(ambient_entropy, allowed=WALL_CLOCK_MODULES) == []


def test_rl002_allowlists_the_wall_clock_modules():
    # An entry that no longer reads the clock leaves the list.
    for module in WALL_CLOCK_MODULES:
        assert ambient_entropy(_trees()[module]), module


def test_rl003_no_unordered_iteration():
    assert _findings(unordered_iteration) == []


def test_rl006_hot_path_classes_declare_slots():
    assert all(any(module.startswith(entry) for module in _trees()) for entry in HOT_PATH)
    classes = _hot_path_classes()
    assert classes
    assert missing_slots(classes) == []
