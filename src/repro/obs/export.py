"""Trace exporter: Chrome trace-event JSON for Perfetto.

The Chrome trace-event format (the ``{"traceEvents": [...]}`` JSON object
understood by ``chrome://tracing`` and https://ui.perfetto.dev) maps
naturally onto the rule lifecycle:

* each lifecycle phase becomes an instant event (``"ph": "i"``) on the
  track (``tid``) of the switch it concerns;
* each completed rule becomes one span (``"ph": "X"``) named
  ``rule <xid>`` stretching from ``update-issued`` to ``hw-activated``,
  so the ack-vs-activation gap is visible as the part of the span after
  the ``ack-received`` marker;
* fault activations land on a dedicated ``faults@<switch>`` track;
* each shadow-replay resync becomes a span named ``resync`` on a
  ``recovery@<switch>`` track, stretching from ``resync-started`` to
  ``resync-complete``, with ``rule-reinstalled`` instants inside it.

Sim-time seconds are scaled to the format's microseconds, and every track
shares pid 1: the sim is single-process by construction.  One encoder,
:func:`chrome_trace_json`, writes a shard in one pass, byte for byte what
``json.dumps(payload, sort_keys=True)`` writes; ``tests/property/
test_trace_pipeline.py`` keeps the dict-building exporter it replaced as the
oracle.  :func:`validate_chrome_trace` is the schema check CI runs against a
traced smoke session.
"""

from __future__ import annotations

import json
from functools import lru_cache
from math import isfinite
from operator import attrgetter
from typing import Any, Dict, List, Optional

from repro.obs.events import (
    PHASE_FAULT,
    PHASE_HW_ACTIVATED,
    PHASE_RESYNC_COMPLETE,
    PHASE_RESYNC_STARTED,
    PHASE_RULE_REINSTALLED,
    PHASE_UPDATE_ISSUED,
    TraceEvent,
    TraceLog,
)

_US = 1_000_000.0  # sim seconds → trace microseconds

#: Overlay tracks: fault activations and the recovery phases are drawn on
#: ``faults@<switch>`` / ``recovery@<switch>``, everything else on the switch.
_OVERLAY_TRACKS = {PHASE_FAULT: "faults", PHASE_RESYNC_STARTED: "recovery",
                   PHASE_RULE_REINSTALLED: "recovery",
                   PHASE_RESYNC_COMPLETE: "recovery"}


def chrome_trace_json(log: TraceLog) -> str:
    """The log as Chrome trace-event JSON text (Perfetto-ready), one pass.

    An instant is one dict lookup and one ``%`` of the template of its
    ``(phase, switch, detail, xid present)``, which holds all its escaped text
    but the xid and the time: no event and no rule span enters a Python frame.
    ``float.__repr__`` is ``json``'s text for a finite float; a non-finite (or
    overflowing) time and an xid that is not a plain ``int`` use ``json.dumps``.
    """
    technique, dumps = log.technique, json.dumps
    num = (float.__repr__ if isfinite(
        sum(map(abs, map(attrgetter("ts"), log.events))) * _US) else dumps)
    #: A string's JSON text, ``%``-escaped for a template; once per shard.
    escaped = lru_cache(None)(lambda value: dumps(value).replace("%", "%%"))
    texts: List[str] = []
    tids: Dict[str, int] = {}
    #: By ``(phase, switch, detail, xid is None)`` for an instant, by switch for a rule span.
    templates: Dict[Any, str] = {}
    starts: Dict[tuple, float] = {}
    ends: Dict[tuple, float] = {}
    #: Open resync start per switch; each started/complete pair is one span.
    open_resyncs: Dict[str, float] = {}
    resync_spans: List[tuple] = []

    def tid_for(overlay: str, switch: str) -> int:
        """A track's tid; its metadata row is written on first use."""
        if overlay:
            track = f"{overlay}@{switch}" if switch else overlay
        else:
            track = switch or "controller"
        tid = tids.get(track)
        if tid is None:
            tid = tids[track] = len(tids) + 1
            texts.append('{"args": {"name": %s}, "name": "thread_name", "ph": "M", '
                         '"pid": 1, "tid": %d, "ts": 0}' % (dumps(track), tid))
        return tid

    def instant_template(phase: str, switch: str, detail: str, bare: bool) -> str:
        args = [f'"detail": {escaped(detail)}'] if detail else []
        if technique:
            args.append(f'"technique": {escaped(technique)}')
        if not bare:
            args.append('"xid": %s')
        return ('{"args": {%s}, "name": %s, "ph": "i", "pid": 1, "s": "t", "tid": %d, '
                '"ts": %%s}' % (", ".join(args), escaped(phase),
                                tid_for(_OVERLAY_TRACKS.get(phase, ""), switch)))

    for event in log.events:
        phase, switch, xid, ts = event.phase, event.switch, event.xid, event.ts
        key = (phase, switch, event.detail, xid is None)
        template = templates.get(key) or templates.setdefault(
            key, instant_template(*key))
        if xid is None:
            texts.append(template % num(ts * _US))
        else:
            texts.append(template % (xid if type(xid) is int else dumps(xid),
                                     num(ts * _US)))
        if not switch:
            continue
        if phase == PHASE_UPDATE_ISSUED and xid is not None:
            starts.setdefault((switch, xid), ts)
        elif phase == PHASE_HW_ACTIVATED and xid is not None:
            ends[switch, xid] = ts
        elif phase == PHASE_RESYNC_STARTED:
            open_resyncs[switch] = ts
        elif phase == PHASE_RESYNC_COMPLETE and switch in open_resyncs:
            resync_spans.append((switch, open_resyncs.pop(switch), ts,
                                 event.detail))

    for key in sorted(starts):
        if key not in ends:
            continue
        switch, xid = key
        template = templates.get(switch) or templates.setdefault(switch, (
            '{"args": {"switch": %s, "technique": %s, "xid": %%s}, "dur": '
            '%%s, "name": %%s, "ph": "X", "pid": 1, "tid": %d, "ts": %%s}'
            % (escaped(switch), escaped(technique), tid_for("", switch))))
        if type(xid) is int:
            xid_text, name = xid, f'"rule {xid}"'
        else:
            xid_text, name = dumps(xid), dumps(f"rule {xid}")
        texts.append(template % (
            xid_text, num(max(0.0, ends[key] - starts[key]) * _US), name,
            num(starts[key] * _US)))

    for switch, started, completed, detail in resync_spans:
        texts.append(
            '{"args": {%s"switch": %s, "technique": %s}, "dur": %s, "name": '
            '"resync", "ph": "X", "pid": 1, "tid": %d, "ts": %s}' % (
                f'"detail": {dumps(detail)}, ' if detail else "",
                dumps(switch), dumps(technique),
                num(max(0.0, completed - started) * _US),
                tid_for("recovery", switch), num(started * _US)))

    other = dumps({"kind": log.kind, "seed": log.seed, "technique": technique}, sort_keys=True)
    return ('{"displayTimeUnit": "ms", "otherData": %s, "traceEvents": [%s]}'
            % (other, ", ".join(texts)))


def write_chrome_trace(log: TraceLog, path) -> None:
    """Write the shard, :func:`chrome_trace_json`'s text, to ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(chrome_trace_json(log))


def trace_from_chrome(payload: Dict[str, Any]) -> TraceLog:
    """Rebuild a :class:`TraceLog` from :func:`chrome_trace_json`'s parsed text.

    The inverse of the instant-event mapping: metadata and the derived
    ``X`` spans are skipped (they are recomputed from the instants), track
    names are folded back into each event's switch, and microseconds return
    to sim seconds.  This is how the run store reads a campaign's per-cell
    Chrome shards back into diffable :class:`TraceLog` form without the
    runner having to persist a second trace encoding.
    """
    other = payload.get("otherData") or {}
    log = TraceLog(
        technique=str(other.get("technique", "")),
        kind=str(other.get("kind", "")),
        seed=other.get("seed"),
    )
    tracks: Dict[int, str] = {}
    for event in payload.get("traceEvents", []):
        if event.get("ph") == "M" and event.get("name") == "thread_name":
            tracks[int(event["tid"])] = str(
                (event.get("args") or {}).get("name", ""))
            continue
        if event.get("ph") != "i":
            continue
        track = tracks.get(int(event.get("tid", 0)), "")
        if "@" in track:
            # "faults@S2" / "recovery@S2" overlay tracks carry the switch
            # after the at-sign; plain tracks *are* the switch.
            switch = track.split("@", 1)[1]
        elif track == "controller":
            switch = ""
        else:
            switch = track
        args = event.get("args") or {}
        log.events.append(TraceEvent(
            ts=float(event["ts"]) / _US,
            phase=str(event["name"]),
            switch=switch,
            xid=args.get("xid"),
            detail=str(args.get("detail", "")),
        ))
    return log


_PHASE_REQUIRED_KEYS = {"name", "ph", "ts", "pid", "tid"}
_VALID_PH = {"B", "E", "X", "i", "I", "M", "C", "b", "e", "n", "s", "t", "f"}


def validate_chrome_trace(payload: Any) -> Optional[str]:
    """Return ``None`` if ``payload`` is a well-formed Chrome trace, else a
    human-readable reason.  This is the CI schema gate, so it is strict
    about what the exporter promises, not merely what viewers tolerate."""
    if not isinstance(payload, dict):
        return "top level must be a JSON object"
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return "missing traceEvents array"
    if not events:
        return "traceEvents is empty"
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            return f"traceEvents[{i}] is not an object"
        missing = _PHASE_REQUIRED_KEYS - set(event)
        if missing:
            return f"traceEvents[{i}] missing keys: {sorted(missing)}"
        if event["ph"] not in _VALID_PH:
            return f"traceEvents[{i}] has unknown phase {event['ph']!r}"
        if event["ph"] != "M" and not isinstance(event["ts"], (int, float)):
            return f"traceEvents[{i}] ts is not numeric"
        if event["ph"] == "X" and not isinstance(event.get("dur"),
                                                 (int, float)):
            return f"traceEvents[{i}] complete event lacks numeric dur"
    return None
