"""Declarative fault plans, the fault-timeline DSL, and plan arming.

A :class:`FaultPlan` is the data-only description of "which fault models run
where, with which parameters, under which seed" — encoded like
:class:`~repro.session.spec.StackSpec` as a plain JSON-able structure so it
travels inside ``SessionSpec.config()``, campaign cell configurations and
result records.  Two codecs exist:

* :meth:`FaultPlan.as_dict` / :meth:`FaultPlan.from_dict` — the canonical
  round-tripping JSON form (session/record provenance);
* :meth:`FaultPlan.to_string` / :meth:`FaultPlan.from_string` — a compact
  one-line form for CLI axes and campaign grids, e.g.::

      ack-loss(probability=0.3)
      delay-spike(probability=0.05,spike=2.0)@s1|s2+switch-crash(at=0.4)@s1

  ``+`` separates plan entries, ``(...)`` carries parameters, ``@`` restricts
  a spec to switches (``|``-separated); no ``@`` means topology-wide.

Beyond plain specs the string form is a small **fault-timeline DSL**:

* **Correlated groups** — ``group(switch-crash@s1,delay-spike@s2)@t=0.5``
  fires its schedulable members together at a common instant (each member's
  own ``at`` becomes an *offset* from the group time); ``phase(...)`` is an
  alias.  Members without a schedule knob (probability faults) are armed
  as-is for the whole run.
* **Rolling waves** — ``rolling(switch-crash(restart_after=0.3)@pod:0,stagger=0.2)``
  expands one schedulable spec across its resolved targets with a per-target
  time stagger: target *j* fires at ``base + j*stagger``.
* **Target selectors** — anywhere a switch name is accepted: ``pod:N``
  (fat-tree pod *N*, i.e. switches named ``A<N>-*`` / ``E<N>-*``),
  ``prefix:P`` (name prefix), ``*`` (every switch), or a literal name.
  Selectors resolve at arm time against the built network.

:func:`arm_fault_plan` expands the plan (:meth:`FaultPlan.expanded`) into
fully-resolved per-(entry, target) instances — each with a deterministically
forked RNG, so schedules are reproducible under a fixed seed regardless of
arming order — and installs the per-layer harnesses.  Plain specs keep their
pre-DSL RNG labels (``fault:<index>:<name>:<target>``) byte-identically.
An empty (or absent) plan arms nothing: the fault-free path is byte-identical
to a build without this subsystem.
"""

from __future__ import annotations

import difflib
import math
import re
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.faults.base import CONTROL_CHANNEL, DATA_PLANE, FaultModel
from repro.faults.harness import ControlChannelHarness, DataPlaneFaultHarness
from repro.faults.registry import available_faults, get_fault
from repro.sim.rng import SeededRandom

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.network import Network
    from repro.sim.kernel import Simulator

#: Spellings of "no faults" accepted wherever a plan string is expected.
NO_FAULTS = ("", "none")

_SPEC_PATTERN = re.compile(
    r"^(?P<name>[a-z0-9][a-z0-9-]*)"
    r"(?:\((?P<params>[^)]*)\))?"
    r"(?:@(?P<targets>[^()+]+))?$"
)

_GROUP_AT_PATTERN = re.compile(r"^@t=(?P<at>[^@]+)$")
_WRAPPER_PATTERN = re.compile(r"^(?P<head>rolling|group|phase)\(")


def split_outside_parens(text: str, separator: str) -> List[str]:
    """Split ``text`` on ``separator`` occurrences outside parentheses.

    Parameter lists carry their own separators — ``spike=1e+20`` holds a
    ``+``, ``ack-loss(probability=0.3,spike=2)`` holds commas — so both the
    ``+`` between fault specs and the ``,`` between CLI axis entries must
    only split at nesting depth zero.  Empty/whitespace items are dropped.
    """
    items, token, depth = [], "", 0
    for char in text:
        if char == separator and depth == 0:
            items.append(token)
            token = ""
            continue
        depth += {"(": 1, ")": -1}.get(char, 0)
        token += char
    items.append(token)
    return [item for item in (token.strip() for token in items) if item]


def _parse_scalar(text: str, token: str) -> object:
    """Parse a value of ``token``: int, then finite float, then bool, then string."""
    for cast in (int, float):
        try:
            value = cast(text)
        except ValueError:
            continue
        if cast is float and not math.isfinite(value):
            raise ValueError(f"non-finite number {text!r} in {token!r}")
        return value
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    return text


def _encode_scalar(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _check_fault_name(name: str, token: str) -> None:
    """Reject unregistered fault names at parse time, with a suggestion.

    Only enforced when the registry is populated (it always is through the
    :mod:`repro.faults` package; importing this module alone skips the check
    and :meth:`FaultPlan.validate` still catches the name later).
    """
    known = available_faults()
    if not known or name in known:
        return
    close = difflib.get_close_matches(name, known, n=1)
    hint = f"; did you mean {close[0]!r}?" if close else ""
    raise ValueError(
        f"unknown fault {name!r} in {token!r}{hint} "
        f"(available: {', '.join(known)})"
    )


@dataclass(frozen=True)
class FaultSpec:
    """One fault model applied to some (or all) switches."""

    #: Registry name of the fault model.
    fault: str
    #: Parameter overrides (defaults of the model fill the rest).
    params: Dict[str, object] = field(default_factory=dict)
    #: Target tokens the fault attaches to — literal switch names or the
    #: selectors ``pod:N`` / ``prefix:P`` / ``*``; empty means every switch.
    targets: Tuple[str, ...] = ()

    def as_dict(self) -> Dict[str, object]:
        return {
            "fault": self.fault,
            "params": dict(self.params),
            "targets": list(self.targets),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "FaultSpec":
        return cls(
            fault=payload["fault"],
            params=dict(payload.get("params") or {}),
            targets=tuple(payload.get("targets") or ()),
        )

    def to_string(self) -> str:
        text = self.fault
        if self.params:
            encoded = ",".join(f"{key}={_encode_scalar(self.params[key])}"
                               for key in sorted(self.params))
            text += f"({encoded})"
        if self.targets:
            text += "@" + "|".join(self.targets)
        return text

    @classmethod
    def from_string(cls, text: str) -> "FaultSpec":
        token = text.strip()
        matched = _SPEC_PATTERN.match(token)
        if not matched:
            detail = ""
            if token.count("(") != token.count(")"):
                detail = "; parentheses are unbalanced"
            elif " " in token.split("(", 1)[0]:
                detail = "; fault names cannot contain spaces"
            raise ValueError(
                f"cannot parse fault spec {token!r} "
                f"(expected name(key=value,...)@switch|switch){detail}"
            )
        name = matched.group("name")
        _check_fault_name(name, token)
        params: Dict[str, object] = {}
        for raw_item in (matched.group("params") or "").split(","):
            item = raw_item.strip()
            if not item:
                continue
            if "=" not in item:
                raise ValueError(
                    f"fault parameter {item!r} in {token!r} is not key=value"
                )
            key, _, value = item.partition("=")
            params[key.strip()] = _parse_scalar(value.strip(), token)
        targets = tuple(
            target.strip()
            for target in (matched.group("targets") or "").split("|")
            if target.strip()
        )
        return cls(fault=name, params=params, targets=targets)


@dataclass(frozen=True)
class GroupSpec:
    """Correlated fault group: members fire together at a common instant.

    Schedulable members (fault models with an ``at`` parameter) get
    ``at = group.at + member.at`` — the member's own ``at`` acts as an
    offset within the group.  Members without a schedule knob are armed
    unchanged, for the whole run.
    """

    members: Tuple[FaultSpec, ...]
    #: Common fire time as a fraction of the update window (same units as
    #: every fault model's ``at``).
    at: float = 0.0

    def as_dict(self) -> Dict[str, object]:
        return {"group": {
            "members": [member.as_dict() for member in self.members],
            "at": self.at,
        }}

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "GroupSpec":
        return cls(
            members=tuple(FaultSpec.from_dict(entry)
                          for entry in payload.get("members") or ()),
            at=float(payload.get("at", 0.0)),
        )

    def to_string(self) -> str:
        body = ",".join(member.to_string() for member in self.members)
        suffix = f"@t={_encode_scalar(self.at)}" if self.at else ""
        return f"group({body}){suffix}"

    @classmethod
    def from_string(cls, body: str, suffix: str, token: str) -> "GroupSpec":
        at = 0.0
        if suffix:
            matched = _GROUP_AT_PATTERN.match(suffix)
            if not matched:
                raise ValueError(
                    f"cannot parse group suffix {suffix!r} in {token!r} "
                    "(expected @t=<time>)"
                )
            at = _parse_scalar(matched.group("at").strip(), token)
            if not isinstance(at, (int, float)) or isinstance(at, bool):
                raise ValueError(
                    f"group time {matched.group('at')!r} in {token!r} "
                    "is not a number"
                )
        members = tuple(FaultSpec.from_string(part)
                        for part in split_outside_parens(body, ","))
        if not members:
            raise ValueError(f"group {token!r} has no members")
        return cls(members=members, at=float(at))


@dataclass(frozen=True)
class RollingSpec:
    """Rolling wave: one schedulable spec staggered across its targets.

    Target *j* (in resolved-target order) fires at ``base + j * stagger``
    where ``base`` is :attr:`at`, falling back to the inner spec's own
    ``at`` and then the fault model's default.
    """

    spec: FaultSpec
    #: Per-target fire-time increment.
    stagger: float = 0.1
    #: Fire time of the first target; ``None`` defers to the inner spec.
    at: Optional[float] = None

    def as_dict(self) -> Dict[str, object]:
        return {"rolling": {
            "spec": self.spec.as_dict(),
            "stagger": self.stagger,
            "at": self.at,
        }}

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "RollingSpec":
        at = payload.get("at")
        return cls(
            spec=FaultSpec.from_dict(payload["spec"]),
            stagger=float(payload.get("stagger", 0.1)),
            at=None if at is None else float(at),
        )

    def to_string(self) -> str:
        parts = [self.spec.to_string(), f"stagger={_encode_scalar(self.stagger)}"]
        if self.at is not None:
            parts.append(f"at={_encode_scalar(self.at)}")
        return f"rolling({','.join(parts)})"

    @classmethod
    def from_string(cls, body: str, token: str) -> "RollingSpec":
        parts = split_outside_parens(body, ",")
        if not parts:
            raise ValueError(f"rolling {token!r} has no inner fault spec")
        spec = FaultSpec.from_string(parts[0])
        stagger, at = 0.1, None
        for part in parts[1:]:
            key, sep, value = part.partition("=")
            key = key.strip()
            if not sep or key not in ("stagger", "at"):
                raise ValueError(
                    f"cannot parse rolling option {part!r} in {token!r} "
                    "(expected stagger=<step> or at=<time>)"
                )
            parsed = _parse_scalar(value.strip(), token)
            if not isinstance(parsed, (int, float)) or isinstance(parsed, bool):
                raise ValueError(
                    f"rolling option {part!r} in {token!r} is not a number"
                )
            if key == "stagger":
                stagger = float(parsed)
            else:
                at = float(parsed)
        return cls(spec=spec, stagger=stagger, at=at)


#: Everything a plan's ``specs`` list may hold.
PlanEntry = Union[FaultSpec, GroupSpec, RollingSpec]


def _parse_entry(token: str) -> PlanEntry:
    """Parse one ``+``-separated plan entry (spec, group or rolling)."""
    wrapped = _WRAPPER_PATTERN.match(token)
    if not wrapped:
        return FaultSpec.from_string(token)
    head = wrapped.group("head")
    depth = 0
    for position in range(len(head), len(token)):
        char = token[position]
        if char == "(":
            depth += 1
        elif char == ")":
            depth -= 1
            if depth == 0:
                body = token[len(head) + 1:position]
                suffix = token[position + 1:].strip()
                if head == "rolling":
                    if suffix:
                        raise ValueError(
                            f"unexpected trailing {suffix!r} in {token!r} "
                            "(rolling takes no @ suffix; put targets on the "
                            "inner spec)"
                        )
                    return RollingSpec.from_string(body, token)
                return GroupSpec.from_string(body, suffix, token)
    raise ValueError(f"unbalanced parentheses in fault entry {token!r}")


def _entry_from_dict(payload: Dict[str, object]) -> PlanEntry:
    if "group" in payload:
        return GroupSpec.from_dict(payload["group"])
    if "rolling" in payload:
        return RollingSpec.from_dict(payload["rolling"])
    if "fault" in payload:
        return FaultSpec.from_dict(payload)
    raise ValueError(
        f"cannot parse fault plan entry {payload!r} "
        "(expected a 'fault', 'group' or 'rolling' key)"
    )


def resolve_targets(
    tokens: Sequence[str],
    network: "Network",
    context: str = "",
) -> List[str]:
    """Resolve target tokens (names and selectors) against a built network.

    Supports literal switch names, ``pod:N`` (fat-tree pod *N*: switches
    ``A<N>-*`` and ``E<N>-*``), ``prefix:P`` (name prefix) and ``*`` (every
    switch).  Order is deterministic: selector-match order follows
    ``network.switch_names()``; duplicates are dropped.  Unknown names raise
    :class:`ValueError` with a nearest-match suggestion.
    """
    names = network.switch_names()
    if not tokens:
        return list(names)
    where = f"fault {context!r}" if context else "fault"
    resolved: List[str] = []
    seen = set()
    for token in tokens:
        if token == "*":
            matched = list(names)
        elif token.startswith("pod:"):
            pod = re.escape(token.split(":", 1)[1])
            pattern = re.compile(rf"^[AE]{pod}-")
            matched = [name for name in names if pattern.match(name)]
            if not matched:
                raise ValueError(
                    f"{where} selector {token!r} matches no switches "
                    "(pods exist on fat-tree topologies, where pod N holds "
                    f"A{token.split(':', 1)[1]}-* and E{token.split(':', 1)[1]}-*)"
                )
        elif token.startswith("prefix:"):
            prefix = token.split(":", 1)[1]
            matched = [name for name in names if name.startswith(prefix)]
            if not matched:
                raise ValueError(
                    f"{where} selector {token!r} matches no switches; "
                    f"switches: {names}"
                )
        else:
            if token not in network.switches:
                close = difflib.get_close_matches(token, names, n=1)
                hint = f" (did you mean {close[0]!r}?)" if close else ""
                raise ValueError(
                    f"{where} targets unknown switch {token!r}{hint}; "
                    f"switches: {names}"
                )
            matched = [token]
        for name in matched:
            if name not in seen:
                seen.add(name)
                resolved.append(name)
    return resolved


@dataclass
class FaultPlan:
    """A list of plan entries (specs, groups, rolling waves).

    An empty plan is exactly the fault-free path — ``SessionSpec`` treats
    ``faults=None`` and ``faults=FaultPlan()`` identically.  Its schedules
    are seeded by the session seed, so one seed knob determines the run.
    """

    specs: List[PlanEntry] = field(default_factory=list)

    def empty(self) -> bool:
        return not self.specs

    def validate(self) -> None:
        """Resolve every fault name and instantiate once to check parameters."""
        for entry in self.specs:
            self._validate_entry(entry)

    @staticmethod
    def _validate_entry(entry: PlanEntry) -> None:
        if isinstance(entry, FaultSpec):
            get_fault(entry.fault)(**entry.params)
        elif isinstance(entry, GroupSpec):
            if not entry.members:
                raise ValueError("fault group has no members")
            if entry.at < 0:
                raise ValueError(f"group time {entry.at} is negative")
            for member in entry.members:
                get_fault(member.fault)(**member.params)
        elif isinstance(entry, RollingSpec):
            if entry.stagger < 0:
                raise ValueError(f"rolling stagger {entry.stagger} is negative")
            if entry.at is not None and entry.at < 0:
                raise ValueError(f"rolling time {entry.at} is negative")
            registered = get_fault(entry.spec.fault)
            if "at" not in registered.param_defaults:
                raise ValueError(
                    f"rolling needs a schedulable fault (one with an 'at' "
                    f"parameter); {entry.spec.fault!r} has none"
                )
            registered(**entry.spec.params)
        else:  # pragma: no cover - guarded by the codecs
            raise TypeError(f"not a fault plan entry: {entry!r}")

    # -- codecs ---------------------------------------------------------------
    def as_dict(self) -> Dict[str, object]:
        """Canonical JSON form; :meth:`from_dict` round-trips it exactly."""
        return {"specs": [entry.as_dict() for entry in self.specs]}

    @classmethod
    def from_dict(cls, payload: Optional[Dict[str, object]]) -> "FaultPlan":
        if payload is None:
            return cls()
        return cls(specs=[_entry_from_dict(entry)
                          for entry in payload.get("specs") or []])

    def to_string(self) -> str:
        """Compact one-line form (campaign axes); ``"none"`` when empty."""
        if self.empty():
            return "none"
        return "+".join(entry.to_string() for entry in self.specs)

    @classmethod
    def from_string(cls, text: Optional[str]) -> "FaultPlan":
        if text is None or text.strip().lower() in NO_FAULTS:
            return cls()
        return cls(specs=[_parse_entry(part)
                          for part in split_outside_parens(text, "+")])

    def describe(self) -> str:
        """Short human-readable label for progress output and reports."""
        return self.to_string()

    # -- expansion -------------------------------------------------------------
    def expanded(
        self, network: "Network",
    ) -> List[Tuple[str, str, Dict[str, object], str]]:
        """Fully-resolved ``(slot, fault name, params, target)`` instances.

        The *slot* feeds the RNG fork label ``fault:<slot>:<name>:<target>``.
        Plain specs keep their list index as slot — byte-identical to the
        pre-DSL labels — group member *m* of entry *i* gets ``"i.m"``, and a
        rolling entry reuses its index (the target disambiguates).
        """
        instances: List[Tuple[str, str, Dict[str, object], str]] = []
        for index, entry in enumerate(self.specs):
            if isinstance(entry, FaultSpec):
                for target in resolve_targets(entry.targets, network,
                                              context=entry.fault):
                    instances.append(
                        (str(index), entry.fault, dict(entry.params), target))
            elif isinstance(entry, GroupSpec):
                for position, member in enumerate(entry.members):
                    params = dict(member.params)
                    if "at" in get_fault(member.fault).param_defaults:
                        params["at"] = entry.at + float(params.get("at", 0.0))
                    for target in resolve_targets(member.targets, network,
                                                  context=member.fault):
                        instances.append(
                            (f"{index}.{position}", member.fault,
                             dict(params), target))
            elif isinstance(entry, RollingSpec):
                inner = entry.spec
                defaults = get_fault(inner.fault).param_defaults
                if entry.at is not None:
                    base = entry.at
                else:
                    base = float(inner.params.get("at", defaults.get("at", 0.0)))
                targets = resolve_targets(inner.targets, network,
                                          context=inner.fault)
                for position, target in enumerate(targets):
                    params = dict(inner.params)
                    params["at"] = base + position * entry.stagger
                    instances.append(
                        (str(index), inner.fault, params, target))
            else:  # pragma: no cover - guarded by the codecs
                raise TypeError(f"not a fault plan entry: {entry!r}")
        return instances


class ArmedFaults:
    """Handle on every fault instance armed for one run."""

    def __init__(self) -> None:
        #: ``(target switch, fault instance)`` in arming order.
        self.instances: List[Tuple[str, FaultModel]] = []
        self.harnesses: List[object] = []

    def counters(self) -> Dict[str, int]:
        """``"<fault>.<event>" -> count`` aggregated over all target switches."""
        totals: Dict[str, int] = {}
        for _target, fault in self.instances:
            for event, count in fault.counters().items():
                key = f"{fault.name}.{event}"
                totals[key] = totals.get(key, 0) + count
        return totals

    def remove(self) -> None:
        """Detach every harness (lifecycle actions already scheduled remain)."""
        for harness in self.harnesses:
            harness.remove()


def arm_fault_plan(
    sim: "Simulator",
    network: "Network",
    plan: Optional[FaultPlan],
    seed: int = 7,
) -> ArmedFaults:
    """Expand and install ``plan`` against ``network``.

    Every expanded (entry, target) instance gets its own fault object and an
    RNG forked by a label — ``fault:<slot>:<name>:<target>`` — from ``seed``
    (the session's), so schedules are deterministic and independent of both
    arming order and how many other faults the plan carries.
    """
    armed = ArmedFaults()
    if plan is None or plan.empty():
        return armed
    root = SeededRandom(seed)
    dataplane_faults: Dict[str, List[FaultModel]] = {}
    control_faults: Dict[str, List[FaultModel]] = {}
    for slot, name, params, target in plan.expanded(network):
        fault = get_fault(name)(**params)
        fault.arm(sim, root.fork(f"fault:{slot}:{name}:{target}"))
        fault._trace_target = target  # fault-overlay trace events
        armed.instances.append((target, fault))
        if fault.layer == DATA_PLANE:
            dataplane_faults.setdefault(target, []).append(fault)
        elif fault.layer == CONTROL_CHANNEL:
            control_faults.setdefault(target, []).append(fault)
        else:
            fault.schedule(network.switch(target))
    for name, faults in dataplane_faults.items():
        armed.harnesses.append(DataPlaneFaultHarness(network.switch(name), faults))
    for name, faults in control_faults.items():
        armed.harnesses.append(
            ControlChannelHarness(network.control_connections[name], faults)
        )
    return armed
