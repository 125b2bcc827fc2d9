"""Unit tests for the flow table semantics."""

import sys

import pytest

from repro.openflow import (
    FlowMod,
    FlowModCommand,
    FlowTable,
    Match,
    OutputAction,
)
from repro.openflow.actions import DropAction
from repro.openflow.flowtable import TableFullError
from repro.packet.packet import make_ip_packet
from repro.sim.kernel import Simulator
from repro.switches.dataplane import DataPlane


def _flowmod(src, dst, port, priority=100, command=FlowModCommand.ADD):
    return FlowMod(Match(ip_src=src, ip_dst=dst), [OutputAction(port)],
                   priority=priority, command=command)


# -- flow table ---------------------------------------------------------------

def test_add_and_lookup_highest_priority_wins():
    table = FlowTable()
    table.apply_flowmod(FlowMod(Match(ip_src="10.0.0.1"), [OutputAction(1)], priority=10))
    table.apply_flowmod(FlowMod(Match(), [OutputAction(2)], priority=1))
    entry = table.lookup(make_ip_packet("10.0.0.1", "10.0.0.9"))
    assert entry.actions[0].port == 1
    fallback = table.lookup(make_ip_packet("10.0.0.2", "10.0.0.9"))
    assert fallback.actions[0].port == 2


def test_priority_tie_broken_by_installation_order():
    table = FlowTable()
    table.apply_flowmod(FlowMod(Match(ip_src="10.0.0.1"), [OutputAction(1)], priority=5), now=1.0)
    table.apply_flowmod(FlowMod(Match(ip_dst="10.0.0.9"), [OutputAction(2)], priority=5), now=2.0)
    entry = table.lookup(make_ip_packet("10.0.0.1", "10.0.0.9"))
    assert entry.actions[0].port == 1


def test_add_identical_match_same_priority_replaces():
    table = FlowTable()
    table.apply_flowmod(_flowmod("10.0.0.1", "10.0.0.2", 1))
    table.apply_flowmod(_flowmod("10.0.0.1", "10.0.0.2", 7))
    assert len(table) == 1
    assert table.lookup(make_ip_packet("10.0.0.1", "10.0.0.2")).actions[0].port == 7


def test_modify_changes_actions_of_matching_entries():
    table = FlowTable()
    table.apply_flowmod(_flowmod("10.0.0.1", "10.0.0.2", 1))
    table.apply_flowmod(_flowmod("10.0.0.1", "10.0.0.2", 9, command=FlowModCommand.MODIFY_STRICT))
    assert len(table) == 1
    assert table.lookup(make_ip_packet("10.0.0.1", "10.0.0.2")).actions[0].port == 9


def test_modify_without_match_behaves_like_add():
    table = FlowTable()
    table.apply_flowmod(_flowmod("10.0.0.1", "10.0.0.2", 3, command=FlowModCommand.MODIFY))
    assert len(table) == 1


def test_delete_strict_requires_same_priority():
    table = FlowTable()
    table.apply_flowmod(_flowmod("10.0.0.1", "10.0.0.2", 1, priority=100))
    wrong_priority = FlowMod(Match(ip_src="10.0.0.1", ip_dst="10.0.0.2"), [],
                             priority=50, command=FlowModCommand.DELETE_STRICT)
    table.apply_flowmod(wrong_priority)
    assert len(table) == 1
    right = FlowMod(Match(ip_src="10.0.0.1", ip_dst="10.0.0.2"), [],
                    priority=100, command=FlowModCommand.DELETE_STRICT)
    table.apply_flowmod(right)
    assert len(table) == 0


def test_delete_wildcard_removes_covered_entries():
    table = FlowTable()
    table.apply_flowmod(_flowmod("10.0.0.1", "10.0.1.1", 1))
    table.apply_flowmod(_flowmod("10.0.0.2", "10.0.1.2", 2))
    delete_all = FlowMod(Match(), [], command=FlowModCommand.DELETE)
    table.apply_flowmod(delete_all)
    assert len(table) == 0


def test_table_capacity_enforced():
    table = FlowTable(capacity=1)
    table.apply_flowmod(_flowmod("10.0.0.1", "10.0.1.1", 1))
    with pytest.raises(TableFullError):
        table.apply_flowmod(_flowmod("10.0.0.2", "10.0.1.2", 2))


def test_install_order_mode_latest_wins():
    table = FlowTable(mode="install_order")
    table.apply_flowmod(FlowMod(Match(), [DropAction()], priority=60000), now=0.0)
    table.apply_flowmod(FlowMod(Match(ip_src="10.0.0.1"), [OutputAction(4)], priority=1), now=1.0)
    entry = table.lookup(make_ip_packet("10.0.0.1", "10.0.0.2"))
    # Despite the drop-all having a huge priority, the later installation wins.
    assert isinstance(entry.actions[0], OutputAction)


def test_invalid_mode_rejected():
    with pytest.raises(ValueError):
        FlowTable(mode="bogus")


def test_lookup_counters_updated():
    plane = DataPlane(Simulator())
    plane.apply_flowmod(_flowmod("10.0.0.1", "10.0.0.2", 1), now=0.0)
    packet = make_ip_packet("10.0.0.1", "10.0.0.2")
    entry = plane.process_packet(packet, in_port=1).matched_entry
    assert entry is plane.table.lookup(packet)
    assert entry.packet_count == 1
    assert entry.byte_count == packet.total_size


def diff_tables(reference, other):
    """Entries present only in ``reference`` and only in ``other`` (by signature)."""
    ref = reference.signature_set()
    oth = other.signature_set()
    return ref - oth, oth - ref


def test_diff_tables_reports_asymmetric_difference():
    left, right = FlowTable(), FlowTable()
    shared = _flowmod("10.0.0.1", "10.0.0.2", 1)
    left.apply_flowmod(shared)
    right.apply_flowmod(shared)
    left.apply_flowmod(_flowmod("10.0.0.3", "10.0.0.4", 2))
    only_left, only_right = diff_tables(left, right)
    assert len(only_left) == 1
    assert not only_right


def test_duplicate_identity_add_at_capacity_replaces():
    table = FlowTable(capacity=1)
    table.apply_flowmod(_flowmod("10.0.0.1", "10.0.1.1", 1))
    table.apply_flowmod(_flowmod("10.0.0.1", "10.0.1.1", 7))
    assert [entry.actions[0].port for entry in table.entries] == [7]


def test_install_order_keeps_equal_matches_of_different_priority_apart():
    table = FlowTable(mode="install_order")
    table.apply_flowmod(_flowmod("10.0.0.1", "10.0.1.1", 1, priority=1), now=0.0)
    newer = table.apply_flowmod(_flowmod("10.0.0.1", "10.0.1.1", 2, priority=9), now=1.0)[0]
    packet = make_ip_packet("10.0.0.1", "10.0.1.1")
    assert table.lookup(packet).actions[0].port == 2
    table.remove_entry(newer)
    assert table.lookup(packet).actions[0].port == 1


# -- flow table: work per operation does not grow with the table -----------------

def _python_calls(function):
    """Python-level function calls ``function`` makes (work, not wall time)."""
    calls = 0

    def count(_frame, event, _arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(count)
    try:
        function()
    finally:
        sys.setprofile(None)
    return calls


def _spy_on_matchers(monkeypatch):
    """Record every matcher a table builds and every call made to one."""
    built, invoked = [], []
    real_compiled = Match.compiled

    def compiled(self):
        matcher = real_compiled(self)
        built.append(self)

        def spy(values):
            invoked.append(self)
            return matcher(values)

        return spy

    monkeypatch.setattr(Match, "compiled", compiled)
    return built, invoked


def _install_with_lookups(table, rule_count):
    """ADD ``rule_count`` distinct exact rules, one lookup after each ADD."""
    flowmods = [_flowmod(0x0A000000 + index, 0x0A010000 + index, 1)
                for index in range(rule_count)]
    values = make_ip_packet("10.0.0.0", "10.1.0.0")._values

    def run():
        for flowmod in flowmods:
            table.apply_flowmod(flowmod)
            assert table.lookup_values(values) is not None

    return flowmods, _python_calls(run)


def test_rule_installation_work_is_linear_in_table_size(monkeypatch):
    """A 2N-rule install costs twice an N-rule one, not four times.

    Rebuilding the index per FlowMod, or scanning the entries for a duplicate
    on every ADD, makes the call count quadratic (ratio 3.96 at these sizes).
    """
    matchers_built, _ = _spy_on_matchers(monkeypatch)
    monkeypatch.setattr(Match, "exact_same", lambda self, other: pytest.fail(
        "ADD compared matches pairwise instead of looking the identity up"))

    _, small = _install_with_lookups(FlowTable(), 100)
    flowmods, large = _install_with_lookups(FlowTable(), 200)
    assert large <= 2.1 * small, (small, large)
    # Exact rules are found by hashing: no matcher is built, let alone run.
    assert matchers_built == []
    # Derived once per match: later readers get the memoised object back.
    for flowmod in flowmods:
        assert flowmod.match.compiled_constraints() is flowmod.match.compiled_constraints()


def test_wildcard_walk_stops_at_the_best_exact_hit(monkeypatch):
    """Matcher invocations per lookup do not grow with the rules behind a hit."""
    built, invoked = _spy_on_matchers(monkeypatch)
    table = FlowTable()
    table.apply_flowmod(_flowmod("10.0.0.1", "10.0.1.1", 1), now=0.0)
    for index in range(50):
        table.apply_flowmod(
            FlowMod(Match(ip_src=("10.0.0.0", 8 + index % 24), tp_dst=index),
                    [OutputAction(2)], priority=100), now=1.0 + index)
    assert table.lookup(make_ip_packet("10.0.0.1", "10.0.1.1")).actions[0].port == 1
    assert len(built) == 50 and invoked == []
