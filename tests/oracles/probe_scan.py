"""The scanning probe generator the mirror's index replaced — test oracle.

``repro.probing.probe_packets.generate_probe_headers`` used to answer "does a
higher-priority rule capture this packet?" and "which rule catches it while
the probed rule is absent?" by testing every rule of the table it was handed,
once per perturbation attempt.  That code lives on here, copied from the last
commit that had it, as the reference the indexed generator is held to
(``tests/property/test_probe_index.py``).  The table is any sequence of rules
with ``match``, ``priority`` and ``actions``; a flow table's ``entries`` is
what RUM used to pass.

Nothing was edited but the imports and the annotations that named the
deleted ``TableRule`` alias: the constants, the error and :class:`RuleView`
are still the package's own.
"""

from typing import Dict, List, Optional, Sequence

from repro.openflow.actions import actions_signature
from repro.openflow.match import Match
from repro.packet.fields import FIELD_ORDER, FIELD_REGISTRY, HeaderField
from repro.probing.probe_packets import (
    _DEFAULT_HEADERS,
    _PERTURBABLE_FIELDS,
    ProbeGenerationError,
    RuleView,
)


def _packet_matches(match: Match, headers: Dict[HeaderField, int]) -> bool:
    # The memoised constraint tuples, not ``match.fields`` (a copy per call):
    # this runs for every rule of the mirror table on every probe.
    for index, value, mask in match.compiled_constraints():
        if (headers.get(FIELD_ORDER[index], 0) & mask) != value:
            return False
    return True


def _conflicting_rules(
    headers: Dict[HeaderField, int],
    probed: RuleView,
    table: Sequence,
) -> List:
    """Higher-priority rules that would capture the probe before the probed rule."""
    return [
        rule
        for rule in table
        if rule.priority > probed.priority
        and not (rule.match.exact_same(probed.match) and rule.priority == probed.priority)
        and _packet_matches(rule.match, headers)
    ]


def _shadowing_rule(
    headers: Dict[HeaderField, int],
    probed: RuleView,
    table: Sequence,
) -> Optional:
    """The rule that matches the probe while the probed rule is absent."""
    candidates = [
        rule
        for rule in table
        if _packet_matches(rule.match, headers)
        and not (rule.match.exact_same(probed.match) and rule.priority == probed.priority)
    ]
    if not candidates:
        return None
    return max(candidates, key=lambda rule: rule.priority)


def generate_probe_headers(
    probed: RuleView,
    table: Sequence,
    overrides: Optional[Dict[HeaderField, int]] = None,
    max_attempts: int = 16,
) -> Dict[HeaderField, int]:
    """Header values of a probe packet for ``probed`` given B's table.

    ``overrides`` carries the values RUM must force into the packet — the
    probe-catch value of the next-hop switch in the reserved field, for
    example.  Raises :class:`ProbeGenerationError` when the rule cannot be
    probed (covered by higher-priority rules, indistinguishable from a
    lower-priority rule, or conflicting with the required overrides).
    """
    overrides = dict(overrides or {})

    # Requirement: the probed rule must not pin an overridden field to a
    # different value, otherwise the probe cannot both match the rule and
    # carry the catch value.
    for field, value in overrides.items():
        required = probed.match.value_of(field)
        if required is not None and required != value:
            raise ProbeGenerationError(
                f"probed rule constrains {field} to {required}, "
                f"but probing requires value {value}"
            )
        if not probed.match.is_wildcard(field) and probed.match.value_of(field) is None:
            raise ProbeGenerationError(
                f"probed rule uses a masked match on {field}; probing field must be free"
            )

    headers: Dict[HeaderField, int] = dict(_DEFAULT_HEADERS)
    headers.update(probed.match.example_packet_headers())
    headers.update(overrides)

    attempt = 0
    perturb_index = 0
    while attempt < max_attempts:
        attempt += 1
        conflicts = _conflicting_rules(headers, probed, table)
        if not conflicts:
            break
        # Try to escape the first conflict by changing a field the probed
        # rule leaves wildcarded (so the probe still matches the probed rule)
        # and that is not pinned by an override.
        escaped = False
        for field in _PERTURBABLE_FIELDS:
            if field in overrides or not probed.match.is_wildcard(field):
                continue
            spec = FIELD_REGISTRY[field]
            new_value = (headers.get(field, 0) + 7919 + perturb_index) % (spec.max_value + 1)
            perturb_index += 1
            candidate = dict(headers)
            candidate[field] = new_value
            if not _conflicting_rules(candidate, probed, table):
                headers = candidate
                escaped = True
                break
        if not escaped:
            raise ProbeGenerationError(
                "probed rule is covered by higher-priority rules; no probe packet escapes them"
            )
    else:
        raise ProbeGenerationError(
            f"could not find a conflict-free probe packet in {max_attempts} attempts"
        )

    shadow = _shadowing_rule(headers, probed, table)
    if shadow is not None and (actions_signature(shadow.actions)
                               == actions_signature(probed.actions)):
        raise ProbeGenerationError(
            "a lower-priority rule forwards the probe identically to the probed rule; "
            "the probe cannot distinguish them"
        )
    return headers
