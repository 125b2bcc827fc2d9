"""Observability: rule-lifecycle tracing and its exporters.

The paper's central phenomenon is a *timing gap* — a switch acknowledges a
FIB update before (or without ever) activating it in hardware.  Every run's
activation ledger (:mod:`repro.analysis.activation`) measures the gap per
rule; this package records *how* it opened, phase by phase:

* :mod:`repro.obs.events` — typed trace events for the rule-update
  lifecycle (``update-issued → msg-sent → switch-received → ack-sent →
  ack-received`` on the control path, ``control-applied → hw-activated`` on
  the switch), each stamped with sim-time, switch id, xid and technique,
  collected into a :class:`~repro.obs.events.TraceLog`;
* :mod:`repro.obs.tracer` — the collecting :class:`~repro.obs.tracer.Tracer`
  a traced session hangs on its simulator as ``sim.tracer``.  A bare run
  holds ``None`` there, which short-circuits every instrumentation site, so
  runs with tracing disarmed stay byte-identical to a build without this
  package (pinned by the existing digest tests).  A traced run only appends
  events: it schedules nothing, so it executes the kernel steps of its bare
  twin;
* :mod:`repro.obs.export` — the Chrome trace-event/Perfetto exporter
  plus a schema validator for CI;
* :mod:`repro.obs.profiler` — the :class:`~repro.obs.profiler.Profiler`, a
  kernel observer passed in as ``spec.run(observer=...)``.

Arm tracing declaratively with ``SessionSpec(trace=True)`` (or
``ScenarioParams(trace=True)``, or ``python -m repro.campaign run --trace``);
the :class:`~repro.session.record.RunRecord` then carries the
:class:`TraceLog` and :mod:`repro.analysis.timeline` renders per-rule
lifecycle and fault-overlay reports from it.
"""

from repro.obs.events import (
    LIFECYCLE_PHASES,
    PHASE_ACK_RECEIVED,
    PHASE_ACK_SENT,
    PHASE_CONTROL_APPLIED,
    PHASE_FAULT,
    PHASE_HW_ACTIVATED,
    PHASE_MSG_SENT,
    PHASE_SWITCH_RECEIVED,
    PHASE_UPDATE_ISSUED,
    TraceEvent,
    TraceLog,
)
from repro.obs.export import (
    trace_to_chrome,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.profiler import ProfileReport, Profiler
from repro.obs.tracer import Tracer

__all__ = [
    "LIFECYCLE_PHASES",
    "PHASE_ACK_RECEIVED",
    "PHASE_ACK_SENT",
    "PHASE_CONTROL_APPLIED",
    "PHASE_FAULT",
    "PHASE_HW_ACTIVATED",
    "PHASE_MSG_SENT",
    "PHASE_SWITCH_RECEIVED",
    "PHASE_UPDATE_ISSUED",
    "ProfileReport",
    "Profiler",
    "TraceEvent",
    "TraceLog",
    "Tracer",
    "trace_to_chrome",
    "validate_chrome_trace",
    "write_chrome_trace",
]
