"""Stateful equivalence of the incrementally maintained flow-table index.

A hypothesis state machine drives one :class:`FlowTable` through every
mutation the class offers, in any order, and after **every** step compares

* the maintained index (``lookup_values``) with the independent sorted-scan
  oracle (``tests/oracles/first_match.py``) on a fixed batch of packets,
  plain and with each installed identity set aside, and
* the identity-keyed store with a list model of the original semantics
  (scan for a duplicate, replace in place, append, filter on delete).

A stale, missing or doubly indexed entry shows as a lookup disagreement; a
store that loses the installation order, the capacity rule or the
``installed_at`` inheritance shows as a model mismatch.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from first_match import lookup_reference

from repro.openflow.actions import OutputAction, actions_signature
from repro.openflow.constants import FlowModCommand
from repro.openflow.flowtable import FlowTable, TableFullError
from repro.openflow.match import Match
from repro.openflow.messages import FlowMod
from repro.packet.fields import HeaderField
from repro.packet.packet import Packet

#: A small pool, so identities collide and matches cover one another: exact
#: rules over two signatures, prefixes, a mixed exact+prefix rule, match-all.
_MATCH_KWARGS = [
    {},
    {"ip_src": "10.0.0.1"},
    {"ip_src": "10.0.0.2"},
    {"ip_src": ("10.0.0.0", 24)},
    {"ip_src": "10.0.0.1", "ip_dst": "10.0.1.1"},
    {"ip_src": "10.0.0.2", "ip_dst": "10.0.1.1"},
    {"ip_src": "10.0.0.1", "ip_dst": ("10.0.1.0", 30)},
    {"ip_dst": ("10.0.1.0", 30)},
    {"tp_dst": 80},
]
_PRIORITIES = [1, 5, 5, 9]
#: Repeats give equal timestamps; drawing in any order makes ``now`` go back.
_TIMES = [0.0, 0.5, 1.0, 1.0, 2.0]
_CAPACITY = 5

_PACKETS = [
    Packet({HeaderField.IP_SRC: src, HeaderField.IP_DST: dst, HeaderField.TP_DST: port})
    for src in (0x0A000001, 0x0A000002, 0x0A00004D, 0x0B000001)
    for dst in (0x0A000101, 0x0A000102, 0x0A090909)
    for port in (80, 81)
]

_MATCHES = [Match(**kwargs) for kwargs in _MATCH_KWARGS]

#: A fresh object per draw: identity must come from equality, not ``is``.
matches = st.sampled_from(_MATCH_KWARGS).map(lambda kwargs: Match(**kwargs))
priorities = st.sampled_from(_PRIORITIES)
times = st.sampled_from(_TIMES)
ports = st.integers(min_value=1, max_value=4)


class _ModelRule:
    """One row of the list model (the pre-rewrite ``List[FlowEntry]``)."""

    def __init__(self, priority, match, port, installed_at):
        self.priority = priority
        self.match = match
        self.port = port
        self.installed_at = installed_at

    def row(self):
        return (self.priority, self.match, self.port, self.installed_at)


class FlowTableMachine(RuleBasedStateMachine):
    mode = "priority"

    def __init__(self):
        super().__init__()
        self.table = FlowTable(mode=self.mode, capacity=_CAPACITY)
        self.model = []
        #: Entry objects that left the table; removing one again is a no-op.
        self.departed = []

    # -- the list model of the original semantics --------------------------
    def _model_selected(self, match, priority, strict):
        if strict:
            return [row for row in self.model
                    if row.priority == priority and row.match.exact_same(match)]
        return [row for row in self.model if match.covers(row.match)]

    def _model_add(self, match, priority, port, now):
        """Returns whether the ADD must be refused with ``TableFullError``."""
        for index, row in enumerate(self.model):
            if row.priority == priority and row.match.exact_same(match):
                kept = row.installed_at if self.mode == "install_order" else now
                self.model[index] = _ModelRule(priority, match, port, kept)
                return False
        if len(self.model) >= _CAPACITY:
            return True
        self.model.append(_ModelRule(priority, match, port, now))
        return False

    def _note_departed(self, before):
        """Remember the entry objects of ``before`` that left the table."""
        after = self.table.entries
        self.departed.extend(entry for entry in before
                             if not any(entry is kept for kept in after))

    def _apply_add(self, flowmod, match, priority, port, now):
        before = self.table.entries
        if self._model_add(match, priority, port, now):
            try:
                self.table.apply_flowmod(flowmod, now=now)
            except TableFullError:
                return
            raise AssertionError("ADD of a new identity at capacity did not raise")
        self.table.apply_flowmod(flowmod, now=now)
        self._note_departed(before)

    # -- rules ---------------------------------------------------------------
    @rule(match=matches, priority=priorities, port=ports, now=times)
    def add(self, match, priority, port, now):
        flowmod = FlowMod(match, [OutputAction(port)], priority=priority)
        self._apply_add(flowmod, match, priority, port, now)

    @precondition(lambda self: self.model)
    @rule(data=st.data(), port=ports, now=times)
    def add_duplicate_identity(self, data, port, now):
        """Always takes the replace path, also when the table is full."""
        row = data.draw(st.sampled_from(self.model))
        match = Match(**_MATCH_KWARGS[_MATCHES.index(row.match)])
        assert match == row.match and match is not row.match
        size = len(self.table)
        flowmod = FlowMod(match, [OutputAction(port)], priority=row.priority)
        self._apply_add(flowmod, match, row.priority, port, now)
        assert len(self.table) == size

    @rule(match=matches, priority=priorities, port=ports, now=times, strict=st.booleans())
    def modify(self, match, priority, port, now, strict):
        command = FlowModCommand.MODIFY_STRICT if strict else FlowModCommand.MODIFY
        flowmod = FlowMod(match, [OutputAction(port)], priority=priority, command=command)
        selected = self._model_selected(match, priority, strict)
        if not selected:
            # OpenFlow 1.0: a MODIFY that addresses nothing behaves like ADD.
            self._apply_add(flowmod, match, priority, port, now)
            return
        for row in selected:
            row.port = port
        touched = self.table.apply_flowmod(flowmod, now=now)
        assert len(touched) == len(selected)

    @rule(match=matches, priority=priorities, strict=st.booleans())
    def delete(self, match, priority, strict):
        command = FlowModCommand.DELETE_STRICT if strict else FlowModCommand.DELETE
        doomed = self._model_selected(match, priority, strict)
        self.model = [row for row in self.model if row not in doomed]
        before = self.table.entries
        assert self.table.apply_flowmod(
            FlowMod(match, [], priority=priority, command=command)) == []
        self._note_departed(before)

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def remove_present_entry(self, data):
        index = data.draw(st.integers(min_value=0, max_value=len(self.model) - 1))
        entry = self.table.entries[index]
        del self.model[index]
        self.table.remove_entry(entry)
        self.departed.append(entry)

    @precondition(lambda self: self.departed)
    @rule(data=st.data())
    def remove_departed_entry(self, data):
        """An entry that was replaced or deleted is not in the table any more,
        even when an equal identity has been installed since."""
        self.table.remove_entry(data.draw(st.sampled_from(self.departed)))

    @rule()
    def clear(self):
        self.departed.extend(self.table.entries)
        self.model = []
        self.table.clear()

    # -- checked after every step --------------------------------------------
    @invariant()
    def index_agrees_with_oracle(self):
        for packet in _PACKETS:
            fast = self.table.lookup_values(packet._values)
            reference = lookup_reference(self.table, packet)
            assert fast is reference, (self.mode, fast, reference, self.table.dump())
            for entry in self.table.entries:
                aside = (entry.priority, entry.match)
                assert (self.table.lookup_values(packet._values, aside)
                        is lookup_reference(self.table, packet, aside)), (self.mode, aside)

    @invariant()
    def store_agrees_with_list_model(self):
        rows = [(entry.priority, entry.match, entry.actions[0].port, entry.installed_at)
                for entry in self.table.entries]
        assert rows == [row.row() for row in self.model]
        assert [entry.entry_id for entry in self.table] == \
            [entry.entry_id for entry in self.table.entries]
        assert len(self.table) == len(self.model) <= _CAPACITY
        assert self.table.signature_set() == {
            (row.match, row.priority, actions_signature([OutputAction(row.port)]))
            for row in self.model
        }
        assert len(self.table.signature_set()) == len(self.model)


class InstallOrderFlowTableMachine(FlowTableMachine):
    mode = "install_order"


_SETTINGS = settings(max_examples=100, stateful_step_count=40, deadline=None)
FlowTableMachine.TestCase.settings = _SETTINGS
InstallOrderFlowTableMachine.TestCase.settings = _SETTINGS

TestPriorityTable = FlowTableMachine.TestCase
TestInstallOrderTable = InstallOrderFlowTableMachine.TestCase
