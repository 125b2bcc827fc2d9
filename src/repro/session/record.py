"""The unified result schema of experiment sessions.

:class:`RunRecord` is the one result type of every session kind (path
migration, the Section 5.2 rule-install benchmark, scenarios) and of the
campaign runner.  One schema means one serializer: :meth:`RunRecord.as_dict`
is the canonical JSON form (it round-trips exactly through
:meth:`RunRecord.from_dict`), :meth:`RunRecord.summary` is the flat view
stored in campaign JSONL files and rendered by the report tables, and
:meth:`RunRecord.digest` is the stable content hash the benchmark suite pins
for determinism checks.

A record has two parts.  :meth:`RunRecord.outcome` is what the simulation
computed, and the *only* thing :meth:`RunRecord.digest` hashes.  Everything
else — ``spec`` (provenance), the activation ``ledger`` and the armed-only
observations (``fault_events``, ``recovery``, ``trace``) — rides beside it in
:meth:`RunRecord.as_dict` and cannot reach the digest: a field is digested
only if someone puts it in :meth:`RunRecord.outcome`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.activation import ActivationDelays, LedgerRow
from repro.analysis.flowstats import FlowUpdateStats
from repro.obs.events import TraceLog

#: Schema version stamped into serialized records.
RECORD_SCHEMA = 1

#: The flat keys every :meth:`RunRecord.summary` contains — what campaign
#: result files store per cell and what the report tables read.
SUMMARY_KEYS = (
    "kind",
    "scenario",
    "technique",
    "topology",
    "scale",
    "seed",
    "flows",
    "plan_size",
    "update_duration",
    "completed",
    "dropped_packets",
    "mean_update_time",
    "completion_time",
    "tracked_flows",
    "max_broken_time",
    "metrics",
    "faults",
    "recovery",
    "digest",
)


def _activation_to_dict(activation: Optional[ActivationDelays]) -> Optional[Dict]:
    if activation is None:
        return None
    return {
        "technique": activation.technique,
        "per_rule": {
            str(xid): list(values) for xid, values in activation.per_rule.items()
        },
    }


def _activation_from_dict(payload: Optional[Dict]) -> Optional[ActivationDelays]:
    if payload is None:
        return None
    return ActivationDelays(
        technique=payload.get("technique", ""),
        per_rule={
            int(xid): tuple(values)
            for xid, values in (payload.get("per_rule") or {}).items()
        },
    )


@dataclass
class RunRecord:
    """Everything one experiment session produced.

    Fields that a particular session kind does not measure keep their
    neutral defaults (``rule-install`` sessions have no flow stats; pure
    migration sessions have no usable-rate), so every consumer reads one
    schema instead of three.
    """

    #: Session kind: ``"path-migration"``, ``"rule-install"``, ``"scenario"``.
    kind: str = "session"
    technique: str = ""
    #: Canonical JSON encoding of the :class:`~repro.session.spec.SessionSpec`
    #: that produced this record (provenance; stored in campaign files).
    spec: Dict[str, object] = field(default_factory=dict)
    #: Scenario registry name for scenario sessions, ``None`` otherwise.
    scenario: Optional[str] = None
    topology: str = ""
    seed: int = 0
    scale: Optional[int] = None

    #: Simulated time at which the update plan was started.
    update_start: float = 0.0
    #: Wall (simulated) duration of the update plan, ``None`` if never done.
    update_duration: Optional[float] = None
    #: Whether the plan finished within its deadline (it may still have
    #: completed later, during the grace window; ``update_duration`` then
    #: records the actual time).
    completed: bool = True

    flows_run: int = 0
    plan_size: int = 0
    #: Plan operations acknowledged by the end of the run.
    acknowledged_rules: int = 0
    #: Acknowledged operations per second of update duration (Table 1).
    usable_rate: Optional[float] = None

    dropped_packets: int = 0
    mean_update_time: Optional[float] = None
    completion_time: Optional[float] = None
    stats: List[FlowUpdateStats] = field(default_factory=list)
    activation: Optional[ActivationDelays] = None
    #: Scenario- or workload-specific numbers (JSON-able values only).
    metrics: Dict[str, object] = field(default_factory=dict)

    rum_description: str = ""
    barrier_layer_held: int = 0
    rum_probe_rule_updates: int = 0
    rum_probes_injected: int = 0
    #: ``"<fault>.<event>" -> count`` of injected-fault activations, summed
    #: over target switches (empty for fault-free runs).
    fault_events: Dict[str, int] = field(default_factory=dict)
    #: Convergence accounting of the recovery subsystem
    #: (:meth:`repro.recovery.manager.RecoveryManager.report`); empty when
    #: the session armed no recovery manager.
    recovery: Dict[str, object] = field(default_factory=dict)
    #: One :class:`~repro.analysis.activation.LedgerRow` per plan operation:
    #: its first data-plane activation against RUM's confirmation and the
    #: controller's ack.  :attr:`activation` is a projection of it.
    ledger: List[LedgerRow] = field(default_factory=list)
    #: Rule-lifecycle trace collected when the spec armed tracing
    #: (``None`` otherwise); see :mod:`repro.obs`.
    trace: Optional[TraceLog] = None

    # -- derived views ---------------------------------------------------------
    def update_pairs(self) -> List[Tuple[Optional[float], Optional[float]]]:
        """``(last old-path, first new-path)`` pairs, per flow (Figure 6/7 axes)."""
        return [(entry.last_old_path, entry.first_new_path) for entry in self.stats]

    def broken_times(self) -> List[float]:
        """Per-flow broken times (Figure 1b input)."""
        return [entry.broken_time for entry in self.stats]

    @property
    def max_broken_time(self) -> float:
        """Longest per-flow outage observed during the update."""
        return max(self.broken_times(), default=0.0)

    # -- the one serializer ---------------------------------------------------
    def outcome(self) -> Dict[str, object]:
        """What the simulation computed — the only input of :meth:`digest`.

        Timings, per-flow stats, per-rule activation delays and metrics: a
        pure function of the seeded workload.  Provenance and observation
        payloads are deliberately absent (see :meth:`as_dict`).
        """
        return {
            "schema": RECORD_SCHEMA,
            "kind": self.kind,
            "technique": self.technique,
            "scenario": self.scenario,
            "topology": self.topology,
            "seed": self.seed,
            "scale": self.scale,
            "update_start": self.update_start,
            "update_duration": self.update_duration,
            "completed": self.completed,
            "flows_run": self.flows_run,
            "plan_size": self.plan_size,
            "acknowledged_rules": self.acknowledged_rules,
            "usable_rate": self.usable_rate,
            "dropped_packets": self.dropped_packets,
            "mean_update_time": self.mean_update_time,
            "completion_time": self.completion_time,
            "stats": [asdict(entry) for entry in self.stats],
            "activation": _activation_to_dict(self.activation),
            "metrics": dict(self.metrics),
            "rum_description": self.rum_description,
            "barrier_layer_held": self.barrier_layer_held,
            "rum_probe_rule_updates": self.rum_probe_rule_updates,
            "rum_probes_injected": self.rum_probes_injected,
        }

    def as_dict(self) -> Dict[str, object]:
        """Canonical JSON-able form; :meth:`from_dict` round-trips it exactly.

        :meth:`outcome` plus ``spec`` plus whichever observations are
        non-empty.  An observation key exists only when its subsystem ran,
        so a disarmed payload is byte-identical to one written before the
        subsystem existed.
        """
        outcome = self.outcome()
        # ``spec`` keeps its historical slot (after ``technique``) so files
        # written from this payload stay byte-identical.
        payload = {key: outcome.pop(key)
                   for key in ("schema", "kind", "technique")}
        payload["spec"] = dict(self.spec)
        payload.update(outcome)
        if self.fault_events:
            payload["fault_events"] = dict(self.fault_events)
        if self.recovery:
            payload["recovery"] = dict(self.recovery)
        if self.ledger:
            payload["ledger"] = [list(row) for row in self.ledger]
        if self.trace:
            payload["trace"] = self.trace.as_dict()
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "RunRecord":
        """Rebuild a record from :meth:`as_dict` output (or a JSON round trip)."""
        schema = payload.get("schema", RECORD_SCHEMA)
        if schema != RECORD_SCHEMA:
            raise ValueError(
                f"record schema {schema!r} is not supported "
                f"(this build reads schema {RECORD_SCHEMA})"
            )
        return cls(
            kind=payload.get("kind", "session"),
            technique=payload.get("technique", ""),
            spec=dict(payload.get("spec") or {}),
            scenario=payload.get("scenario"),
            topology=payload.get("topology", ""),
            seed=payload.get("seed", 0),
            scale=payload.get("scale"),
            update_start=payload.get("update_start", 0.0),
            update_duration=payload.get("update_duration"),
            completed=payload.get("completed", True),
            flows_run=payload.get("flows_run", 0),
            plan_size=payload.get("plan_size", 0),
            acknowledged_rules=payload.get("acknowledged_rules", 0),
            usable_rate=payload.get("usable_rate"),
            dropped_packets=payload.get("dropped_packets", 0),
            mean_update_time=payload.get("mean_update_time"),
            completion_time=payload.get("completion_time"),
            stats=[FlowUpdateStats(**entry) for entry in payload.get("stats") or []],
            activation=_activation_from_dict(payload.get("activation")),
            metrics=dict(payload.get("metrics") or {}),
            rum_description=payload.get("rum_description", ""),
            barrier_layer_held=payload.get("barrier_layer_held", 0),
            rum_probe_rule_updates=payload.get("rum_probe_rule_updates", 0),
            rum_probes_injected=payload.get("rum_probes_injected", 0),
            fault_events=dict(payload.get("fault_events") or {}),
            recovery=dict(payload.get("recovery") or {}),
            ledger=[LedgerRow(*row) for row in payload.get("ledger") or []],
            trace=(TraceLog.from_dict(payload["trace"])
                   if payload.get("trace") else None),
        )

    def summary(self) -> Dict[str, object]:
        """Flat, bounded-size view (campaign result files, report tables).

        Keys are :data:`SUMMARY_KEYS`; unlike :meth:`as_dict` this drops the
        per-flow and per-rule detail, so one campaign cell is one short JSON
        line no matter how many flows the cell ran.
        """
        return {
            "kind": self.kind,
            "scenario": self.scenario,
            "technique": self.technique,
            "topology": self.topology,
            "scale": self.scale,
            "seed": self.seed,
            "flows": self.flows_run,
            "plan_size": self.plan_size,
            "update_duration": self.update_duration,
            "completed": self.completed,
            "dropped_packets": self.dropped_packets,
            "mean_update_time": self.mean_update_time,
            "completion_time": self.completion_time,
            "tracked_flows": len(self.stats),
            "max_broken_time": self.max_broken_time,
            "metrics": dict(self.metrics),
            "faults": dict(self.fault_events),
            "recovery": dict(self.recovery),
            "digest": self.digest(),
        }

    def digest(self) -> str:
        """Stable content hash of the simulation-determined :meth:`outcome`.

        Provenance (:attr:`spec`) and the observation payloads are not part
        of the outcome, so the same seeded workload produces the same digest
        no matter which entry point built the session or what was armed.
        Xids are normalised away, as every pinned digest was hashed.
        """
        return outcome_digest(self.outcome())


#: The keys of :meth:`RunRecord.outcome`, derived from the builder itself so
#: the two cannot drift apart.
OUTCOME_KEYS = tuple(RunRecord().outcome())


def _none_last(values) -> List[Tuple[bool, float]]:
    return [(value is None, 0.0 if value is None else value) for value in values]


def outcome_digest(payload: Dict[str, object]) -> str:
    """The digest of an :meth:`RunRecord.as_dict` payload.

    Module-level so the run store's ``verify`` can recheck stored payloads
    without round-tripping them through :class:`RunRecord`.  Only the
    :data:`OUTCOME_KEYS` are hashed; whatever else the payload carries
    (provenance, observations, keys this build has never heard of) cannot
    move the digest.
    """
    outcome = {key: payload[key] for key in OUTCOME_KEYS if key in payload}
    activation = outcome.get("activation")
    if activation is not None:
        # Per-rule delays are keyed by xid; hash the sorted delay multiset,
        # as every pinned digest does, so the digest is xid-independent.  A
        # never-activated rule's ``None`` sorts after every time, and a list
        # of times sorts exactly as a plain ``sorted`` would.
        outcome["activation"] = {
            "technique": activation["technique"],
            "delays": sorted(activation["per_rule"].values(), key=_none_last),
        }
    canonical = json.dumps(outcome, sort_keys=True, separators=(",", ":"),
                           default=str)
    return hashlib.sha1(canonical.encode("utf-8")).hexdigest()[:16]
