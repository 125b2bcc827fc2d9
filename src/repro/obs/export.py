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

Sim-time seconds are scaled to the format's microseconds.
:func:`validate_chrome_trace` is the schema check CI runs against a traced
smoke session.
"""

from __future__ import annotations

import json
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

#: Process id for all tracks; the sim is single-process by construction.
_PID = 1

#: Events encoded per ``json.dumps`` call when a shard is written.
_BATCH = 512


#: Overlay tracks: fault activations and the recovery phases are drawn on
#: ``faults@<switch>`` / ``recovery@<switch>``, everything else on the switch.
_OVERLAY_TRACKS = {PHASE_FAULT: "faults", PHASE_RESYNC_STARTED: "recovery",
                   PHASE_RULE_REINSTALLED: "recovery",
                   PHASE_RESYNC_COMPLETE: "recovery"}


def trace_to_chrome(log: TraceLog) -> Dict[str, Any]:
    """Render the log as a Chrome trace-event JSON object (Perfetto-ready).

    Every dict literal below is written in sorted-key order, so the
    ``sort_keys`` pass of :func:`write_chrome_trace` finds nothing to move.
    """
    events: List[Dict[str, Any]] = []
    technique = log.technique
    tids: Dict[str, int] = {}
    #: ``(overlay, switch) -> tid``: a track is named (and its metadata row
    #: emitted) once per track, not once per event.
    track_tids: Dict[tuple, int] = {}
    starts: Dict[tuple, float] = {}
    ends: Dict[tuple, float] = {}
    #: Open resync start timestamp per switch (a switch can resync more than
    #: once — each started/complete pair becomes its own span).
    open_resyncs: Dict[str, float] = {}
    resync_spans: List[tuple] = []

    def tid_for(overlay: str, switch: str) -> int:
        if overlay:
            track = f"{overlay}@{switch}" if switch else overlay
        else:
            track = switch or "controller"
        tid = tids.get(track)
        if tid is None:
            tid = tids[track] = len(tids) + 1
            events.append({
                "args": {"name": track}, "name": "thread_name", "ph": "M",
                "pid": _PID, "tid": tid, "ts": 0,
            })
        track_tids[overlay, switch] = tid
        return tid

    for event in log.events:
        phase, switch, xid, ts = event.phase, event.switch, event.xid, event.ts
        overlay = _OVERLAY_TRACKS.get(phase, "")
        args: Dict[str, Any] = {}
        if event.detail:
            args["detail"] = event.detail
        if technique:
            args["technique"] = technique
        if xid is not None:
            args["xid"] = xid
        tid = track_tids.get((overlay, switch)) or tid_for(overlay, switch)
        events.append({
            "args": args, "name": phase, "ph": "i", "pid": _PID,
            "s": "t",  # instant scoped to its thread/track
            "tid": tid, "ts": ts * _US,
        })
        if not switch:
            continue
        if phase == PHASE_RESYNC_STARTED:
            open_resyncs[switch] = ts
        elif phase == PHASE_RESYNC_COMPLETE:
            started = open_resyncs.pop(switch, None)
            if started is not None:
                resync_spans.append((switch, started, ts, event.detail))
        if xid is None:
            continue
        if phase == PHASE_UPDATE_ISSUED:
            starts.setdefault((switch, xid), ts)
        elif phase == PHASE_HW_ACTIVATED:
            ends[switch, xid] = ts

    for key in sorted(starts):
        if key not in ends:
            continue
        switch, xid = key
        events.append({
            "args": {"switch": switch, "technique": technique, "xid": xid},
            "dur": max(0.0, ends[key] - starts[key]) * _US,
            "name": f"rule {xid}", "ph": "X", "pid": _PID,
            "tid": tid_for("", switch), "ts": starts[key] * _US,
        })

    for switch, started, completed, detail in resync_spans:
        args = {"switch": switch, "technique": technique}
        if detail:
            args = {"detail": detail, **args}
        events.append({
            "args": args, "dur": max(0.0, completed - started) * _US,
            "name": "resync", "ph": "X", "pid": _PID,
            "tid": tid_for("recovery", switch), "ts": started * _US,
        })

    return {
        "displayTimeUnit": "ms",
        "otherData": {"kind": log.kind, "seed": log.seed,
                      "technique": technique},
        "traceEvents": events,
    }


def write_chrome_trace(log: TraceLog, path) -> None:
    """Write the shard through the C encoder, a bounded batch at a time
    (``json.dump`` streams every value through the pure-Python ``_iterencode``;
    one ``json.dumps`` of a whole shard holds several times its size in chunk
    strings).  ``traceEvents`` sorts last among the top-level keys."""
    payload = trace_to_chrome(log)
    events = payload.pop("traceEvents")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(payload, sort_keys=True)[:-1])
        handle.write(', "traceEvents": [')
        for start in range(0, len(events), _BATCH):
            batch = json.dumps(events[start:start + _BATCH], sort_keys=True)
            handle.write((", " if start else "") + batch[1:-1])
        handle.write("]}")


def trace_from_chrome(payload: Dict[str, Any]) -> TraceLog:
    """Rebuild a :class:`TraceLog` from :func:`trace_to_chrome` output.

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


def read_chrome_trace(path) -> TraceLog:
    with open(path, "r", encoding="utf-8") as handle:
        return trace_from_chrome(json.load(handle))


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
