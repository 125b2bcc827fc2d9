"""The linear-time trace pipeline against the code it replaced.

``rule_lifecycles`` used to match every ``msg-sent`` event against *all*
lifecycles, and the Chrome exporter named a track and built unsorted dicts
per event for the pure-Python ``json.dump`` stream.  Both old versions are
kept here, verbatim, as oracles: the replacements must return the same
lifecycles in the same key order and write the same shard byte for byte.
"""

import json
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.timeline import (
    RuleLifecycle,
    fault_overlaps,
    rule_lifecycles,
)
from repro.obs.events import (
    LIFECYCLE_PHASES,
    PHASE_ACK_RECEIVED,
    PHASE_ACK_SENT,
    PHASE_CONTROL_APPLIED,
    PHASE_FAULT,
    PHASE_HW_ACTIVATED,
    PHASE_MSG_SENT,
    PHASE_RESYNC_COMPLETE,
    PHASE_RESYNC_STARTED,
    PHASE_RULE_REINSTALLED,
    PHASE_SWITCH_RECEIVED,
    PHASE_UPDATE_ISSUED,
    TraceEvent,
    TraceLog,
)
from repro.obs.export import (
    chrome_trace_json,
    trace_from_chrome,
    validate_chrome_trace,
    write_chrome_trace,
)

_US = 1_000_000.0
_OVERLAY_PHASES = (PHASE_FAULT, PHASE_RESYNC_STARTED, PHASE_RULE_REINSTALLED,
                   PHASE_RESYNC_COMPLETE)


# -- oracles: the parent commit's code -------------------------------------------

def _old_rule_lifecycles(log):
    lifecycles = {}
    slot_by_phase = {
        PHASE_UPDATE_ISSUED: "issued",
        PHASE_SWITCH_RECEIVED: "switch_received",
        PHASE_CONTROL_APPLIED: "control_applied",
        PHASE_ACK_SENT: "ack_sent",
        PHASE_ACK_RECEIVED: "ack_received",
        PHASE_HW_ACTIVATED: "hw_activated",
    }

    def lifecycle(switch, xid):
        key = (switch, xid)
        entry = lifecycles.get(key)
        if entry is None:
            entry = lifecycles[key] = RuleLifecycle(switch=switch, xid=xid)
        return entry

    for event in log.events:
        if event.xid is None:
            continue
        slot = slot_by_phase.get(event.phase)
        if slot is not None and event.switch:
            entry = lifecycle(event.switch, event.xid)
            if getattr(entry, slot) is None:
                setattr(entry, slot, event.ts)
                if event.phase == PHASE_ACK_SENT and event.detail:
                    entry.confirmed_by = event.detail

    for event in log.events:
        if event.phase != PHASE_MSG_SENT or event.xid is None:
            continue
        for (switch, xid), entry in lifecycles.items():
            if xid != event.xid or entry.msg_sent is not None:
                continue
            if event.switch == switch or event.switch.endswith(f"-{switch}"):
                entry.msg_sent = event.ts

    return lifecycles


def _old_fault_overlaps(log):
    lifecycles = _old_rule_lifecycles(log)
    return [
        (event.ts, event.switch, event.detail, [
            (switch, xid)
            for (switch, xid), entry in sorted(lifecycles.items())
            if entry.issued is not None and entry.issued <= event.ts
            and (entry.hw_activated is None or entry.hw_activated > event.ts)
        ])
        for event in log.events if event.phase == PHASE_FAULT
    ]


def _old_track_name(event):
    if event.phase == PHASE_FAULT:
        return f"faults@{event.switch}" if event.switch else "faults"
    if event.phase in _OVERLAY_PHASES:
        return f"recovery@{event.switch}" if event.switch else "recovery"
    return event.switch or "controller"


def _old_trace_to_chrome(log):
    events = []
    tids = {}
    spans = {}
    open_resyncs = {}
    resync_spans = []

    def tid_for(track):
        tid = tids.get(track)
        if tid is None:
            tid = tids[track] = len(tids) + 1
            events.append({
                "name": "thread_name", "ph": "M", "ts": 0, "pid": 1,
                "tid": tid, "args": {"name": track},
            })
        return tid

    for event in log.events:
        track = _old_track_name(event)
        args = {}
        if event.xid is not None:
            args["xid"] = event.xid
        if event.detail:
            args["detail"] = event.detail
        if log.technique:
            args["technique"] = log.technique
        events.append({
            "name": event.phase,
            "ph": "i",
            "s": "t",
            "ts": event.ts * _US,
            "pid": 1,
            "tid": tid_for(track),
            "args": args,
        })
        if event.switch and event.phase == PHASE_RESYNC_STARTED:
            open_resyncs[event.switch] = event.ts
        elif event.switch and event.phase == PHASE_RESYNC_COMPLETE:
            started = open_resyncs.pop(event.switch, None)
            if started is not None:
                resync_spans.append((event.switch, started, event.ts,
                                     event.detail))
        if event.xid is None or not event.switch:
            continue
        key = (event.switch, event.xid)
        span = spans.setdefault(key, {})
        if event.phase == PHASE_UPDATE_ISSUED:
            span.setdefault("start", event.ts)
        elif event.phase == PHASE_HW_ACTIVATED:
            span["end"] = event.ts

    for (switch, xid), span in sorted(spans.items()):
        if "start" not in span or "end" not in span:
            continue
        events.append({
            "name": f"rule {xid}",
            "ph": "X",
            "ts": span["start"] * _US,
            "dur": max(0.0, span["end"] - span["start"]) * _US,
            "pid": 1,
            "tid": tid_for(switch),
            "args": {"xid": xid, "switch": switch,
                     "technique": log.technique},
        })

    for switch, started, completed, detail in resync_spans:
        args = {"switch": switch, "technique": log.technique}
        if detail:
            args["detail"] = detail
        events.append({
            "name": "resync",
            "ph": "X",
            "ts": started * _US,
            "dur": max(0.0, completed - started) * _US,
            "pid": 1,
            "tid": tid_for(f"recovery@{switch}"),
            "args": args,
        })

    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "technique": log.technique,
            "kind": log.kind,
            "seed": log.seed,
        },
    }


# -- generated logs ---------------------------------------------------------------

#: Suffix-ambiguous on purpose: ``ctl-S11`` must feed neither ``S1`` nor ``1``,
#: ``ctlS1`` nothing (no dash), ``rum-a-S1`` both ``S1`` and ``a-S1``, and a
#: bare switch name is its own channel.  Quotes, ``%`` and non-ASCII names
#: reach the shard's escaping and its templates.
_SWITCHES = ["S1", "S11", "a-S1", "1", "", 'q"S1', "S%d", "ß-✓"]
_CHANNELS = ["ctl-S1", "ctl-S11", "rum-a-S1", "ctlS1", "S1", "S11", "-S1", "",
             'ctl-q"S1', "ctl-ß-✓"]
#: Exact in binary, and ``ts * 1e6 / 1e6 == ts``, so shards read back equal.
_TIMES = st.integers(0, 1 << 20).map(lambda ticks: ticks / 1024.0)
_DETAILS = st.one_of(
    st.just(""),
    st.sampled_from(["probe", "barrier", 'say "hi"', "back\\slash", "ünï-✓",
                     "missing=3", "line\nbreak", "100%s", "%(x)d"]),
    st.text(max_size=6),
)
_XIDS = st.sampled_from([None, 1, 1, 2, 2])


@st.composite
def _events(draw):
    # Channel sends are what the rewrite indexes: draw them three times as often.
    phase = draw(st.sampled_from(LIFECYCLE_PHASES + _OVERLAY_PHASES
                                 + (PHASE_MSG_SENT,) * 2))
    names = _CHANNELS + _SWITCHES if phase == PHASE_MSG_SENT else _SWITCHES
    return TraceEvent(draw(_TIMES), phase, draw(st.sampled_from(names)),
                      draw(_XIDS), draw(_DETAILS))


_LOGS = st.builds(
    TraceLog,
    technique=st.sampled_from(["", "general", 'tech"nique', "gé%s"]),
    kind=st.sampled_from(["", "scenario"]),
    seed=st.one_of(st.none(), st.integers(0, 99)),
    events=st.lists(_events(), min_size=1, max_size=40),
)


# -- properties ---------------------------------------------------------------------

def _log(*events):
    return TraceLog(technique="general", events=[TraceEvent(*e) for e in events])


@settings(max_examples=300, deadline=None)
@given(_LOGS)
# One send feeding two lifecycles, sent before either is otherwise known.
@example(_log((1.0, PHASE_MSG_SENT, "rum-a-S1", 1),
              (2.0, PHASE_UPDATE_ISSUED, "a-S1", 1),
              (3.0, PHASE_ACK_RECEIVED, "S1", 1),
              (4.0, PHASE_MSG_SENT, "rum-a-S1", 1)))
# ``ctl-S11`` and ``ctlS1`` are not S1's channel; only the first match counts.
@example(_log((1.0, PHASE_UPDATE_ISSUED, "S1", 2),
              (1.5, PHASE_UPDATE_ISSUED, "1", 2),
              (2.0, PHASE_MSG_SENT, "ctl-S11", 2),
              (3.0, PHASE_MSG_SENT, "ctlS1", 2),
              (4.0, PHASE_MSG_SENT, "ctl-S1", 2),
              (5.0, PHASE_MSG_SENT, "S1", 2)))
def test_lifecycles_equal_the_quadratic_reconstruction(log):
    old, new = _old_rule_lifecycles(log), rule_lifecycles(log)
    assert list(new) == list(old)  # same keys in the same insertion order
    assert new == old
    assert [(o.ts, o.switch, o.detail, o.open_rules)
            for o in fault_overlaps(log)] == _old_fault_overlaps(log)


def _as_read_back(event):
    """What ``trace_from_chrome`` makes of ``event``: an overlay event without
    a switch sits on the bare ``faults``/``recovery`` track, which reads back
    as a switch of that name (parent behaviour, kept)."""
    switch = event.switch
    if not switch and event.phase in _OVERLAY_PHASES:
        switch = "faults" if event.phase == PHASE_FAULT else "recovery"
    return TraceEvent(event.ts, event.phase, switch, event.xid, event.detail)


@settings(max_examples=300, deadline=None)
@given(_LOGS)
def test_shards_are_byte_identical_to_the_streamed_encoding(log):
    expected = json.dumps(_old_trace_to_chrome(log), sort_keys=True)
    with tempfile.TemporaryDirectory() as scratch:
        shard = Path(scratch) / "cell.trace.json"
        write_chrome_trace(log, shard)
        assert shard.read_bytes() == expected.encode("utf-8")
        payload = json.loads(shard.read_text("utf-8"))
    assert validate_chrome_trace(payload) is None
    assert payload == _old_trace_to_chrome(log)
    back = trace_from_chrome(payload)
    assert back.events == [_as_read_back(event) for event in log.events]
    assert (back.technique, back.kind, back.seed) == (log.technique, log.kind,
                                                      log.seed)


def test_odd_xids_and_non_finite_times_keep_the_streamed_bytes():
    # ``json`` writes ``true`` for a bool xid and ``Infinity``/``NaN`` for a
    # non-finite float (also one that overflows when scaled to microseconds),
    # where ``%d`` and ``float.__repr__`` would write ``1`` and ``inf``.
    logs = [
        _log((0.5, PHASE_UPDATE_ISSUED, "S1", True, "a%sb"),
             (1.0, PHASE_HW_ACTIVATED, "S1", True), (1.5, PHASE_FAULT, "", "x")),
        _log((0.5, PHASE_UPDATE_ISSUED, "S1", 3),
             (float("inf"), PHASE_HW_ACTIVATED, "S1", 3)),
        _log((float("nan"), PHASE_UPDATE_ISSUED, "S1", 3),
             (2, PHASE_HW_ACTIVATED, "S1", 3)),
        _log((1e303, PHASE_RESYNC_STARTED, "S1"),
             (-1e303, PHASE_RESYNC_COMPLETE, "S1", None, "%%")),
    ]
    for log in logs:
        expected = json.dumps(_old_trace_to_chrome(log), sort_keys=True)
        assert chrome_trace_json(log) == expected
