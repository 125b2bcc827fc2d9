"""RUM's pending tracker against the full scan it replaced.

A cumulative confirmation used to copy the tracker's keys and test every
record; it now walks in order and stops early (``core/pending.py``).  Random
programs of adds, in-place re-adds of a pending xid (a controller
retransmit), re-sends of a confirmed xid, single confirmations and
cumulative ones must return the same records in the same order, and leave
the same ``oldest()`` / ``unconfirmed()`` order behind; the newest pending
sequence (sequential probing's stalled-batch timer reads it) is the full
scan's maximum after every step.
"""

from collections import OrderedDict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pending import PendingRule, PendingRuleTracker
from repro.openflow import FlowMod, Match


class _ScanningTracker:
    """The tracker as it was: every cumulative confirmation scans it all."""

    def __init__(self, switch):
        self.switch = switch
        self._pending = OrderedDict()
        self._sequence = 0

    def add(self, flowmod, now):
        self._sequence += 1
        record = PendingRule(self.switch, flowmod.xid, flowmod, now, self._sequence)
        self._pending[flowmod.xid] = record
        return record

    def oldest(self, count):
        return list(self._pending.values())[:count]

    def unconfirmed(self):
        return list(self._pending.values())

    def newest_sequence(self):
        return max((record.sequence for record in self._pending.values()), default=None)

    def confirm(self, xid, now, by=""):
        record = self._pending.pop(xid, None)
        if record is None:
            return None
        record.confirmed_at = now
        record.confirmed_by = by
        return record

    def confirm_up_to_sequence(self, sequence, now, by=""):
        confirmed = []
        for xid in list(self._pending.keys()):
            record = self._pending[xid]
            if record.sequence <= sequence:
                confirmed.append(self.confirm(xid, now, by=by))
        return [record for record in confirmed if record is not None]


_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.just(0)),
        st.tuples(st.just("re-add"), st.integers(0, 50)),
        st.tuples(st.just("re-send"), st.integers(0, 50)),
        st.tuples(st.just("confirm"), st.integers(0, 50)),
        st.tuples(st.just("cumulative"), st.integers(-2, 3)),
    ),
    max_size=60,
)


def _seen(records):
    return [(record.xid, record.sequence, record.confirmed_at, record.confirmed_by)
            for record in records]


@settings(max_examples=400, deadline=None)
@given(_STEPS)
def test_confirmations_and_order_match_the_full_scan(steps):
    tracker, reference = PendingRuleTracker("S"), _ScanningTracker("S")
    flowmods, confirmed = [], []
    for now, (kind, pick) in enumerate(steps):
        pending = [record.xid for record in reference.unconfirmed()]
        if kind == "add":
            flowmods.append(FlowMod(Match(), xid=len(flowmods) + 1))
            chosen = [flowmods[-1]]
        elif kind in ("re-add", "re-send"):
            xids = pending if kind == "re-add" else confirmed
            chosen = [flowmods[xids[pick % len(xids)] - 1]] if xids else []
        else:
            chosen = []
        for flowmod in chosen:
            assert _seen([tracker.add(flowmod, now)]) == _seen([reference.add(flowmod, now)])
        if kind == "confirm":
            xid = pending[pick % len(pending)] if pending and pick % 3 else 1000 + pick
            mine, theirs = tracker.confirm(xid, now, "one"), reference.confirm(xid, now, "one")
            assert (mine is None) == (theirs is None)
            returned = [] if mine is None else [mine]
            assert _seen(returned) == _seen([] if theirs is None else [theirs])
        elif kind == "cumulative":
            # Up to a random point of the window, and around its ends.
            sequences = sorted(record.sequence for record in reference.unconfirmed())
            if sequences and 0 <= pick < 2:
                bound = sequences[(pick * len(sequences)) // 2]
            else:
                bound = reference._sequence + pick
            returned = tracker.confirm_up_to_sequence(bound, now, "cumulative")
            assert _seen(returned) == _seen(reference.confirm_up_to_sequence(bound, now,
                                                                           "cumulative"))
        else:
            returned = []
        confirmed.extend(record.xid for record in returned)
        assert _seen(tracker.unconfirmed()) == _seen(reference.unconfirmed())
        assert _seen(tracker.oldest(3)) == _seen(reference.oldest(3))
        assert len(tracker) == len(reference._pending)
        assert tracker.newest_sequence() == reference.newest_sequence()
