"""The indexed probe generator agrees with the scan it replaced.

``generate_probe_headers`` asks RUM's mirror table two first-match questions
through the table's index; ``tests/oracles/probe_scan.py`` is the pre-index
generator, which tested every rule of ``table.entries``.  On tables built
through ``apply_flowmod`` — overlapping wildcards and masked IP prefixes,
equal priorities, identities ADDed again, strict deletes — both must return
the same headers, or refuse with the same reason.

With one exception, pinned below as a named case: two rules of equal
priority both catch the probe while the probed rule is absent, and one of
them was ADDed again after the other.  The scan took the first of them in
``entries`` order, where a replaced rule keeps its old place; the index takes
the one the switch forwards by, the older installation.  The two can then
disagree on whether that rule forwards the probe the way the probed rule
does.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import probe_scan
from first_match import lookup_reference
from repro.openflow.actions import OutputAction, actions_signature
from repro.openflow.constants import FlowModCommand
from repro.openflow.flowtable import FlowTable
from repro.openflow.match import Match
from repro.openflow.messages import FlowMod
from repro.packet.fields import HeaderField
from repro.packet.packet import Packet
from repro.probing.probe_packets import ProbeGenerationError, RuleView, generate_probe_headers

#: Matches that overlap one another and the generator's default and perturbed
#: headers (10.0.254.1 -> 10.0.254.2, ports 40000 -> 40001, perturbation
#: steps of 7919): exact addresses, prefixes from /8 to /30, ports, the probe
#: field, and match-all.
_MATCH_KWARGS = [
    {},
    {"ip_src": "10.0.0.1"},
    {"ip_src": "10.0.0.1", "ip_dst": "10.0.0.2"},
    {"ip_src": "10.0.0.1", "ip_dst": ("10.0.0.0", 30)},
    {"ip_src": ("10.0.0.0", 24)},
    {"ip_src": ("10.0.0.0", 8)},
    {"ip_src": ("10.0.0.0", 16), "tp_dst": 40001},
    {"ip_dst": ("10.0.0.0", 16)},
    {"ip_dst": "10.0.254.2"},
    {"tp_dst": 40001},
    {"tp_src": 40000, "tp_dst": 40001},
    {"ip_tos": 7},
    {"ip_src": "10.0.0.1", "ip_tos": 3},
]

matches = st.sampled_from(_MATCH_KWARGS).map(lambda kwargs: Match(**kwargs))
priorities = st.sampled_from([1, 5, 5, 9, 100])
ports = st.integers(min_value=1, max_value=3)
commands = st.sampled_from([FlowModCommand.ADD, FlowModCommand.ADD, FlowModCommand.ADD,
                            FlowModCommand.DELETE_STRICT, FlowModCommand.MODIFY_STRICT])
#: ``(command, match, priority, port)``; identities repeat, so ADDs replace.
flowmods = st.lists(st.tuples(commands, matches, priorities, ports), max_size=14)


def _mirror(script, probed=None):
    """A priority-mode table after ``script``, then ``probed`` ADDed as RUM
    mirrors a rule before probing it."""
    table = FlowTable(name="mirror")
    for now, (command, match, priority, port) in enumerate(script):
        table.apply_flowmod(FlowMod(match, [OutputAction(port)], command=command,
                                    priority=priority), now=float(now))
    if probed is not None:
        table.apply_flowmod(FlowMod(probed.match, list(probed.actions),
                                    priority=probed.priority), now=float(len(script)))
    return table


def _outcome(generate, probed, table, overrides):
    try:
        return generate(probed, table, overrides)
    except ProbeGenerationError as refusal:
        return ("refused", str(refusal))


def _assert_agree(script, probed, mirrored, catch_value):
    table = _mirror(script, probed if mirrored else None)
    overrides = {HeaderField.IP_TOS: catch_value}
    indexed = _outcome(generate_probe_headers, probed, table, overrides)
    scanned = _outcome(probe_scan.generate_probe_headers, probed, table.entries, overrides)
    if indexed == scanned:
        if isinstance(indexed, dict):
            assert list(indexed) == list(scanned)  # the probe's headers, in order
        return
    # The one difference allowed: the last step, who catches the probe while
    # the probed rule is absent, on an equal-priority tie after a re-ADD.
    headers = indexed if isinstance(indexed, dict) else scanned
    assert isinstance(headers, dict), (indexed, scanned)
    by_switch = lookup_reference(table, Packet(dict(headers)),
                                 (probed.priority, probed.match))
    by_scan = probe_scan._shadowing_rule(headers, probed, table.entries)
    assert by_switch is not by_scan and by_switch.priority == by_scan.priority
    assert by_switch.installed_at < by_scan.installed_at
    same = actions_signature(by_switch.actions) == actions_signature(probed.actions)
    assert isinstance(indexed, tuple) == same, (probed, table.entries_sorted_for_lookup())


@given(flowmods, matches, priorities, ports, st.booleans(),
       st.sampled_from([3, 7, 9]))
@settings(max_examples=400, deadline=None)
def test_the_indexed_generator_returns_what_the_scan_returned(
        script, probed_match, priority, port, mirrored, catch_value):
    probed = RuleView(match=probed_match, priority=priority,
                      actions=(OutputAction(port),))
    _assert_agree(script, probed, mirrored, catch_value)


def test_a_tie_after_a_re_add_is_broken_the_way_the_switch_breaks_it():
    # Two priority-5 rules catch the probe without the probed rule: the /8,
    # installed first and ADDed again last (now forwarding to port 3), and
    # match-all (port 2).  The switch forwards by match-all, the older
    # installation; the probed rule forwards to port 2 as well, so no probe
    # can tell them apart.  The scan looked at the /8, which kept its first
    # place in ``entries``, and built a probe that proves nothing.
    prefix = Match(ip_src=("10.0.0.0", 8))
    script = [(FlowModCommand.ADD, prefix, 5, 1),
              (FlowModCommand.ADD, Match(), 5, 2),
              (FlowModCommand.ADD, prefix, 5, 3)]
    probed = RuleView(match=Match(ip_src="10.0.254.1", ip_dst="10.0.254.2"),
                      priority=100, actions=(OutputAction(2),))
    table = _mirror(script, probed)
    overrides = {HeaderField.IP_TOS: 7}
    assert _outcome(generate_probe_headers, probed, table, overrides) == (
        "refused", "a lower-priority rule forwards the probe identically to the "
                   "probed rule; the probe cannot distinguish them")
    headers = probe_scan.generate_probe_headers(probed, table.entries, overrides)
    absent = _mirror(script)
    assert absent.lookup(Packet(dict(headers))).actions == [OutputAction(2)]
    _assert_agree(script, probed, True, 7)
