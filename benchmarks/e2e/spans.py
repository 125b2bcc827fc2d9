"""Span recording at layer boundaries, from the benchmark's side.

The span pass wraps the functions listed in :data:`BOUNDARIES` — at class or
module level, before the pass builds any simulation object, and in every
``repro`` module that bound the name at import — and records one span per
call: name, start, end and the span that caused it, in flat arrays kept in
memory until the workload ends.  A layer's **self time** is its spans'
duration minus the part their child spans cover.  The timed pass never sees
any of this: wrappers exist only between :meth:`SpanRecorder.install` and
:meth:`SpanRecorder.uninstall`.

A few boundaries are private methods (``Link._flush_train``,
``Switch._forward``, ``Host.send``/``receive_packet``): the kernel calls them
directly, so without them a third of the ``net``/``switches`` work would be
booked as ``sim`` self time.  A boundary that no longer exists fails
:meth:`SpanRecorder.install`; one that is silently bypassed fails
:func:`check_fired`.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

LAYERS = ("sim", "net", "openflow", "switches", "probing", "core",
          "controller", "faults", "recovery", "session", "scenarios",
          "campaign", "store", "obs", "analysis")

#: Layer of the root span the worker opens around each call; its self time is
#: whatever no boundary claimed (argument building, the benchmark's own loop).
BENCH_LAYER = "bench"
ROOT_SPAN = "bench.call"

# Workload initials for the ``on`` column below.
_M, _R, _O, _C = ("migration-dataplane", "rule-install-controlplane",
                  "outage-traced", "campaign-replay")
_SIMULATING = (_M, _R, _O)
_CELLS = (_M, _O)


def _steps_before(args) -> int:
    return args[0].steps_executed


def _steps_after(args, result, before: int) -> int:
    return args[0].steps_executed - before


def _not_none(args, result, before) -> int:
    return 0 if result is None else 1


def _length(args, result, before) -> int:
    return len(result)


@dataclass(frozen=True)
class Boundary:
    layer: str
    module: str
    #: ``function`` or ``Class.method`` inside :attr:`module`.
    target: str
    #: Workloads on which this span must fire at least once.
    on: Tuple[str, ...]
    #: Optional exact count taken at the boundary: ``after(args, result,
    #: before(args))`` is added to the tally ``<layer>.<tally>``.
    tally: str = ""
    before: Optional[Callable] = None
    after: Optional[Callable] = None

    @property
    def name(self) -> str:
        return f"{self.layer}:{self.target}"


BOUNDARIES: Tuple[Boundary, ...] = (
    Boundary("campaign", "repro.campaign.runner", "run_cell", _CELLS),
    Boundary("campaign", "repro.campaign.runner", "CampaignRunner.run", (_C,)),
    Boundary("campaign", "repro.campaign.runner", "encode_record", (_C,)),
    Boundary("campaign", "repro.campaign.report", "render_report", (_C,)),
    # Ingest runs in campaign-replay's set-up, before any wrapper exists.
    Boundary("store", "repro.store.store", "RunStore.ingest", ()),
    Boundary("store", "repro.store.store", "RunStore.cached_record", (_C,),
             tally="cache_hits", after=_not_none),
    Boundary("store", "repro.store.store", "RunStore.verify", (_C,)),
    Boundary("scenarios", "repro.scenarios.engine", "run_scenario", _CELLS),
    Boundary("scenarios", "repro.scenarios.engine", "scenario_session", _CELLS),
    Boundary("session", "repro.session.engine", "run_session", _SIMULATING),
    Boundary("sim", "repro.sim.kernel", "Simulator.run", _SIMULATING,
             tally="steps_executed", before=_steps_before, after=_steps_after),
    Boundary("net", "repro.net.link", "Link.transmit_from", _SIMULATING),
    Boundary("net", "repro.net.link", "Link._flush_train", _SIMULATING),
    Boundary("net", "repro.net.host", "Host.send", _CELLS),
    Boundary("net", "repro.net.host", "Host.receive_packet", _CELLS),
    Boundary("net", "repro.net.traffic", "TrafficGenerator.start", _CELLS),
    Boundary("openflow", "repro.openflow.flowtable", "FlowTable.lookup", ()),
    Boundary("openflow", "repro.openflow.flowtable", "FlowTable.lookup_values",
             _SIMULATING),
    Boundary("openflow", "repro.openflow.flowtable", "FlowTable.apply_flowmod",
             _SIMULATING),
    Boundary("openflow", "repro.openflow.connection", "ConnectionEndpoint.send",
             _SIMULATING),
    Boundary("switches", "repro.switches.base", "Switch.receive_packet",
             _SIMULATING),
    Boundary("switches", "repro.switches.base", "Switch._forward", _SIMULATING),
    Boundary("switches", "repro.switches.dataplane", "DataPlane.process_packet",
             _SIMULATING),
    Boundary("switches", "repro.switches.controlplane", "ControlPlane.receive",
             _SIMULATING),
    Boundary("probing", "repro.probing.probe_packets", "generate_probe_headers",
             _SIMULATING),
    Boundary("core", "repro.core.rum", "RumLayer.handle_from_controller",
             _SIMULATING),
    Boundary("core", "repro.core.rum", "RumLayer.handle_from_switch",
             _SIMULATING),
    Boundary("core", "repro.core.rum", "RumLayer.confirm_rule", _SIMULATING,
             tally="rules_confirmed", after=_not_none),
    Boundary("core", "repro.core.rum", "RumLayer.confirm_up_to", _SIMULATING,
             tally="rules_confirmed", after=_length),
    Boundary("controller", "repro.controller.base", "Controller.send_flowmod",
             _SIMULATING),
    Boundary("controller", "repro.controller.base", "Controller.retransmit",
             (_O,)),
    Boundary("controller", "repro.controller.update_plan", "PlanExecutor.start",
             _SIMULATING),
    Boundary("faults", "repro.faults.plan", "arm_fault_plan", (_O,)),
    Boundary("recovery", "repro.recovery.manager",
             "RecoveryManager.on_switch_reconnect", (_O,)),
    Boundary("recovery", "repro.recovery.manager",
             "RecoveryManager.flowmod_acked", (_O,)),
    Boundary("obs", "repro.obs.tracer", "Tracer.rule", (_O,)),
    Boundary("obs", "repro.obs.tracer", "Tracer.finish", (_O,)),
    Boundary("obs", "repro.obs.export", "write_chrome_trace", (_O,)),
    Boundary("analysis", "repro.analysis.flowstats", "flow_update_stats",
             _CELLS),
    Boundary("analysis", "repro.analysis.timeline", "activation_gap_summary",
             (_O,)),
)


class SpanRecorder:
    """Flat, append-only span arrays plus the wrappers that fill them."""

    def __init__(self) -> None:
        self.names: List[str] = [ROOT_SPAN] + [b.name for b in BOUNDARIES]
        self.layers: List[str] = [BENCH_LAYER] + [b.layer for b in BOUNDARIES]
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        #: Index of the root span of each call, in call order.
        self.call_roots: List[int] = []
        self.tallies: Dict[str, int] = {}
        # [index of the open span, or -1]: a list cell, shared by closures.
        self._open = [-1]
        self._patched: List[Tuple[object, str, object]] = []

    # -- wrapping -------------------------------------------------------------
    def _wrap(self, function: Callable, name_id: int,
              boundary: Optional[Boundary] = None) -> Callable:
        names_append = self.name_ids.append
        parents_append = self.parents.append
        starts_append = self.starts.append
        ends_append = self.ends.append
        name_ids, parents, ends = self.name_ids, self.parents, self.ends
        open_span = self._open
        clock = time.perf_counter

        def span(*args, **kwargs):
            index = len(name_ids)
            names_append(name_id)
            parents_append(open_span[0])
            open_span[0] = index
            ends_append(0.0)
            starts_append(clock())
            try:
                return function(*args, **kwargs)
            finally:
                ends[index] = clock()
                open_span[0] = parents[index]

        if boundary is None or not boundary.tally:
            return span

        tallies = self.tallies
        key = f"{boundary.layer}.{boundary.tally}"
        before, after = boundary.before, boundary.after

        def tallied_span(*args, **kwargs):
            token = before(args) if before is not None else None
            result = span(*args, **kwargs)
            tallies[key] = tallies.get(key, 0) + after(args, result, token)
            return result

        return tallied_span

    def install(self) -> None:
        """Wrap every boundary; raises if one of them no longer exists."""
        for name_id, boundary in enumerate(BOUNDARIES, start=1):
            module = importlib.import_module(boundary.module)
            owner: object = module
            *path, attribute = boundary.target.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = vars(owner)[attribute] if path else getattr(owner, attribute)
            wrapper = self._wrap(original, name_id, boundary)
            wrapper.__wrapped__ = original
            owners = [owner]
            if not path:
                # ``from x import f`` copies the binding: patch every repro
                # module that holds the very same function object.
                owners += [other for name, other in sorted(sys.modules.items())
                           if name.startswith("repro") and other is not module
                           and getattr(other, attribute, None) is original]
            for holder in owners:
                self._patched.append((holder, attribute, original))
                setattr(holder, attribute, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            holder, attribute, original = self._patched.pop()
            setattr(holder, attribute, original)

    def call(self, function: Callable, *args):
        """Run ``function(*args)`` under a fresh root span (one per call)."""
        self.call_roots.append(len(self.name_ids))
        return self._wrap(function, 0)(*args)


def self_times(starts: Sequence[float], ends: Sequence[float],
               parents: Sequence[int]) -> List[float]:
    """Per-span self time: duration minus what direct children cover.

    Spans come from one thread and nest properly, so children never overlap
    each other and subtracting each child's duration from its parent is
    exact.
    """
    own = [end - start for start, end in zip(starts, ends)]
    for index, parent in enumerate(parents):
        if parent >= 0:
            own[parent] -= ends[index] - starts[index]
    return own


def aggregate(recorder: SpanRecorder) -> Dict[str, Dict[str, float]]:
    """``span name -> {layer, calls, self_s}`` over everything recorded."""
    own = self_times(recorder.starts, recorder.ends, recorder.parents)
    totals: Dict[str, Dict[str, float]] = {
        name: {"layer": layer, "calls": 0, "self_s": 0.0}
        for name, layer in zip(recorder.names, recorder.layers)
    }
    names = recorder.names
    for name_id, seconds in zip(recorder.name_ids, own):
        entry = totals[names[name_id]]
        entry["calls"] += 1
        entry["self_s"] += seconds
    return totals


def check_fired(workload: str, expected_layers: frozenset,
                totals: Dict[str, Dict[str, float]]) -> List[str]:
    """Spans that should have fired and did not, or fired where they must not."""
    problems = []
    for boundary in BOUNDARIES:
        calls = totals[boundary.name]["calls"]
        if workload in boundary.on and not calls:
            problems.append(f"span {boundary.name} never fired on {workload} "
                            "(wrapper bypassed by a pre-bound callable?)")
        if boundary.layer not in expected_layers and calls:
            problems.append(f"span {boundary.name} fired {calls}x on {workload}, "
                            f"which must not touch layer {boundary.layer}")
    return problems


def chrome_trace(recorder: SpanRecorder, max_spans: int) -> Dict[str, object]:
    """The first ``max_spans`` spans as Chrome trace-event complete events.

    A sample for eyeballing nesting in Perfetto, not the full record: one
    data-plane cell alone is ~100k spans.  Parents precede their children in
    the arrays, so a prefix is always a well-formed forest.
    """
    limit = min(len(recorder.name_ids), max_spans)
    origin = recorder.starts[0] if limit else 0.0
    events: List[Dict[str, object]] = [{
        "name": "process_name", "ph": "M", "ts": 0, "pid": 1, "tid": 1,
        "args": {"name": "benchmarks/e2e span pass"},
    }]
    call = -1
    roots = recorder.call_roots
    for index in range(limit):
        if call + 1 < len(roots) and index == roots[call + 1]:
            call += 1
        name_id = recorder.name_ids[index]
        events.append({
            "name": recorder.names[name_id], "cat": recorder.layers[name_id],
            "ph": "X", "pid": 1, "tid": 1,
            "ts": (recorder.starts[index] - origin) * 1e6,
            "dur": (recorder.ends[index] - recorder.starts[index]) * 1e6,
            "args": {"span": index, "parent": recorder.parents[index],
                     "call": call},
        })
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": {"spans_exported": limit,
                          "spans_recorded": len(recorder.name_ids)}}


def _metric_specs() -> Tuple[Tuple[str, str, str], ...]:
    specs = [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    specs += [(f"{layer}.calls", "count", "lower") for layer in LAYERS]
    specs += [
        ("sim.steps_executed", "count", "lower"),
        ("sim.ns_per_step", "ns", "lower"),
        ("net.packets_transmitted", "count", "lower"),
        ("net.us_per_packet", "us", "lower"),
        ("openflow.lookups", "count", "lower"),
        ("openflow.lookup_ns", "ns", "lower"),
        ("openflow.flowmods_applied", "count", "lower"),
        ("openflow.flowmod_us", "us", "lower"),
        ("openflow.messages_sent", "count", "lower"),
        ("switches.packets_processed", "count", "lower"),
        ("switches.dataplane_us_per_packet", "us", "lower"),
        ("switches.control_msgs", "count", "lower"),
        ("switches.control_us_per_msg", "us", "lower"),
        ("probing.probes_generated", "count", "lower"),
        ("probing.us_per_probe", "us", "lower"),
        ("core.rules_confirmed", "count", "lower"),
        ("core.us_per_confirmation", "us", "lower"),
        ("core.early_ack_rules", "count", "lower"),
        ("controller.flowmods_sent", "count", "lower"),
        ("controller.retransmits", "count", "lower"),
        ("controller.us_per_flowmod", "us", "lower"),
        ("faults.events_fired", "count", "lower"),
        ("recovery.resyncs", "count", "lower"),
        ("recovery.rules_reinstalled", "count", "lower"),
        ("session.fixed_overhead_ms", "ms", "lower"),
        ("scenarios.build_ms_per_cell", "ms", "lower"),
        ("obs.trace_events", "count", "lower"),
        ("obs.us_per_event", "us", "lower"),
        ("obs.export_ms_per_cell", "ms", "lower"),
        ("analysis.ms_per_cell", "ms", "lower"),
        ("campaign.cold_cells_per_s", "cells/s", "higher"),
        ("campaign.replay_ms_per_cell", "ms", "lower"),
        ("campaign.report_ms", "ms", "lower"),
        ("store.ingest_ms_per_cell", "ms", "lower"),
        ("store.verify_ms_per_cell", "ms", "lower"),
        ("store.lookup_us", "us", "lower"),
        ("store.cache_hit_share", "ratio", "higher"),
        ("bench.span_overhead_ratio", "ratio", "lower"),
    ]
    return tuple(specs)


#: ``(name, unit, better)`` of every per-layer metric; ``BENCHMARK.json``'s
#: ``per_layer`` list mirrors this (the smoke test compares them).
PER_LAYER = _metric_specs()


def layer_metrics(totals: Dict[str, Dict[str, float]], tallies: Dict[str, int],
                  repetitions: int, cells: int,
                  sums: Dict[str, float]) -> Dict[str, float]:
    """Every :data:`PER_LAYER` value, per repetition of the mix.

    ``totals``/``tallies`` cover ``repetitions`` identical repetitions of
    ``cells`` cells each; ``sums`` carries what only the call outcomes and the
    set-up know (fault events, resyncs, early acks, cold-campaign and ingest
    rates, the span-overhead ratio), already per repetition.
    """
    def calls(*targets: str) -> float:
        return sum(entry["calls"] for name, entry in totals.items()
                   if name.split(":", 1)[-1] in targets) / repetitions

    def own(*targets: str) -> float:
        return sum(entry["self_s"] for name, entry in totals.items()
                   if name.split(":", 1)[-1] in targets) / repetitions

    def per(seconds: float, count: float, scale: float) -> float:
        return scale * seconds / count if count else 0.0

    values: Dict[str, float] = {}
    for layer in LAYERS:
        entries = [entry for entry in totals.values() if entry["layer"] == layer]
        values[f"{layer}.self_s"] = sum(e["self_s"] for e in entries) / repetitions
        values[f"{layer}.calls"] = sum(e["calls"] for e in entries) / repetitions

    steps = tallies.get("sim.steps_executed", 0) / repetitions
    confirmed = tallies.get("core.rules_confirmed", 0) / repetitions
    lookups = calls("FlowTable.lookup", "FlowTable.lookup_values")
    packets = calls("DataPlane.process_packet")
    cached = calls("RunStore.cached_record")
    values.update({
        "sim.steps_executed": steps,
        "sim.ns_per_step": per(values["sim.self_s"], steps, 1e9),
        "net.packets_transmitted": calls("Link.transmit_from"),
        "net.us_per_packet": per(values["net.self_s"],
                                 calls("Link.transmit_from"), 1e6),
        "openflow.lookups": lookups,
        "openflow.lookup_ns": per(
            own("FlowTable.lookup", "FlowTable.lookup_values"), lookups, 1e9),
        "openflow.flowmods_applied": calls("FlowTable.apply_flowmod"),
        "openflow.flowmod_us": per(own("FlowTable.apply_flowmod"),
                                   calls("FlowTable.apply_flowmod"), 1e6),
        "openflow.messages_sent": calls("ConnectionEndpoint.send"),
        "switches.packets_processed": packets,
        "switches.dataplane_us_per_packet": per(
            own("Switch.receive_packet", "Switch._forward",
                "DataPlane.process_packet"), packets, 1e6),
        "switches.control_msgs": calls("ControlPlane.receive"),
        "switches.control_us_per_msg": per(own("ControlPlane.receive"),
                                           calls("ControlPlane.receive"), 1e6),
        "probing.probes_generated": calls("generate_probe_headers"),
        "probing.us_per_probe": per(values["probing.self_s"],
                                    calls("generate_probe_headers"), 1e6),
        "core.rules_confirmed": confirmed,
        "core.us_per_confirmation": per(
            own("RumLayer.confirm_rule", "RumLayer.confirm_up_to"),
            confirmed, 1e6),
        "core.early_ack_rules": sums.get("early_acks", 0),
        "controller.flowmods_sent": calls("Controller.send_flowmod"),
        "controller.retransmits": calls("Controller.retransmit"),
        "controller.us_per_flowmod": per(own("Controller.send_flowmod"),
                                         calls("Controller.send_flowmod"), 1e6),
        "faults.events_fired": sums.get("fault_events", 0),
        "recovery.resyncs": sums.get("resyncs", 0),
        "recovery.rules_reinstalled": sums.get("rules_reinstalled", 0),
        "session.fixed_overhead_ms": per(own("run_session"),
                                         calls("run_session"), 1e3),
        "scenarios.build_ms_per_cell": per(values["scenarios.self_s"],
                                           calls("run_scenario"), 1e3),
        "obs.trace_events": calls("Tracer.rule"),
        "obs.us_per_event": per(own("Tracer.rule"), calls("Tracer.rule"), 1e6),
        "obs.export_ms_per_cell": per(own("write_chrome_trace"),
                                      calls("write_chrome_trace"), 1e3),
        "analysis.ms_per_cell": per(values["analysis.self_s"], cells, 1e3),
        "campaign.cold_cells_per_s": sums.get("cold_cells_per_s", 0.0),
        "campaign.replay_ms_per_cell": per(
            own("CampaignRunner.run", "encode_record"),
            cells if calls("CampaignRunner.run") else 0, 1e3),
        "campaign.report_ms": per(own("render_report"),
                                  calls("render_report"), 1e3),
        "store.ingest_ms_per_cell": sums.get("ingest_ms_per_cell", 0.0),
        "store.verify_ms_per_cell": per(own("RunStore.verify"),
                                        cells if calls("RunStore.verify") else 0,
                                        1e3),
        "store.lookup_us": per(own("RunStore.cached_record"), cached, 1e6),
        "store.cache_hit_share": per(
            tallies.get("store.cache_hits", 0) / repetitions, cached, 1.0),
        "bench.span_overhead_ratio": sums.get("span_overhead_ratio", 0.0),
    })
    return values
