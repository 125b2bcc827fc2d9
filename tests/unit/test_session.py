"""Tests for the unified session API: the technique registry, the
``RunRecord`` schema (serializer round trip, digests), and the guarantee
that a technique registered once runs through every entry point."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.activation import ActivationDelays, LedgerRow
from repro.analysis.flowstats import FlowUpdateStats
from repro.campaign import CampaignRunner, CampaignSpec, run_cell
from repro.core.config import RumConfig, config_for_technique
from repro.core.techniques.base import AckTechnique
from repro.core.techniques.registry import (
    TECHNIQUE_NO_WAIT,
    TECHNIQUES,
    available_techniques,
    get_technique,
    resolve_technique,
    rum_technique_names,
)
from repro.experiments.common import (
    EndToEndParams,
    RuleInstallParams,
    run_path_migration,
    run_rule_install,
)
from repro.obs import TraceEvent, TraceLog
from repro.scenarios import ScenarioParams, run_scenario
from repro.session import SUMMARY_KEYS, RunRecord
from repro.session.record import OUTCOME_KEYS, outcome_digest
from repro.store import RunStore

#: The payload keys that ride beside the outcome and must never reach the
#: digest: provenance, the activation ledger and the armed-only observations.
OBSERVATION_KEYS = ("spec", "fault_events", "recovery", "ledger", "trace")

#: ``as_dict()`` keys of a record with nothing armed — the serialized layout
#: every stored record and pinned digest was written against.
DISARMED_KEYS = {
    "schema", "kind", "technique", "spec", "scenario", "topology", "seed",
    "scale", "update_start", "update_duration", "completed", "flows_run",
    "plan_size", "acknowledged_rules", "usable_rate", "dropped_packets",
    "mean_update_time", "completion_time", "stats", "activation", "metrics",
    "rum_description", "barrier_layer_held", "rum_probe_rule_updates",
    "rum_probes_injected",
}


def _quick_migration_params(**overrides):
    defaults = dict(flow_count=2, rate_pps=250.0, seed=3, warmup=0.1,
                    grace=0.2, max_update_duration=5.0)
    defaults.update(overrides)
    return EndToEndParams(**defaults)


def _quick_scenario_params(**overrides):
    defaults = dict(flow_count=3, warmup=0.1, grace=0.2,
                    max_update_duration=5.0, seed=7)
    defaults.update(overrides)
    return ScenarioParams(**defaults)


# ---------------------------------------------------------------------------
# Technique registry
# ---------------------------------------------------------------------------

class TestTechniqueRegistry:
    def test_builtins_registered(self):
        assert {"barrier", "timeout", "adaptive", "sequential", "general",
                TECHNIQUE_NO_WAIT} <= set(available_techniques())

    def test_no_wait_is_a_null_technique(self):
        technique = get_technique(TECHNIQUE_NO_WAIT)
        assert issubclass(technique, AckTechnique)
        assert not technique.uses_rum
        assert technique.ignore_dependencies
        assert technique.rum_config() is None
        assert TECHNIQUE_NO_WAIT not in rum_technique_names()

    def test_rum_techniques_do_not_ignore_dependencies(self):
        for name in rum_technique_names():
            technique = get_technique(name)
            assert technique.uses_rum
            assert not technique.ignore_dependencies

    def test_adaptive_owns_its_assumed_rate_default(self):
        technique = get_technique("adaptive")
        assert technique.config_defaults["assumed_rate"] == pytest.approx(250.0)
        assert config_for_technique("adaptive").assumed_rate == pytest.approx(250.0)
        # Caller overrides still win over the technique's own defaults.
        assert technique.rum_config(assumed_rate=200.0).assumed_rate == pytest.approx(200.0)

    def test_resolve_accepts_entries_and_names(self):
        technique = get_technique("general")
        assert resolve_technique(technique) is technique
        assert resolve_technique("general") is technique

    def test_unknown_technique_rejected_everywhere(self):
        with pytest.raises(KeyError):
            get_technique("quantum")
        with pytest.raises(ValueError):
            resolve_technique("quantum")
        with pytest.raises(ValueError):
            run_path_migration("quantum", _quick_migration_params())
        with pytest.raises(ValueError):
            config_for_technique("quantum")
        with pytest.raises(ValueError):
            RumConfig(technique="quantum").validated()

    def test_no_wait_has_no_rum_config(self):
        with pytest.raises(ValueError):
            config_for_technique(TECHNIQUE_NO_WAIT)
        with pytest.raises(ValueError):
            RumConfig(technique=TECHNIQUE_NO_WAIT).validated()

    @pytest.mark.parametrize("technique", sorted(available_techniques()))
    def test_every_registered_technique_runs_a_triangle_migration(self, technique):
        record = run_path_migration(technique, _quick_migration_params())
        assert isinstance(record, RunRecord)
        assert record.technique == technique
        assert record.completed
        assert record.flows_run == 2
        assert record.plan_size > 0
        assert all(entry.switched for entry in record.stats)


# ---------------------------------------------------------------------------
# RunRecord: one schema, one serializer
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def migration_record():
    return run_path_migration("barrier", _quick_migration_params(flow_count=3))


@pytest.fixture(scope="module")
def scenario_record():
    return run_scenario("path-migration", "general", _quick_scenario_params())


@pytest.fixture(scope="module")
def rule_install_record():
    return run_rule_install("general", RuleInstallParams(rule_count=40,
                                                         max_unconfirmed=20))


class TestRunRecordRoundTrip:
    def _assert_round_trips(self, record):
        payload = record.as_dict()
        rebuilt = RunRecord.from_dict(json.loads(json.dumps(payload)))
        assert rebuilt == record
        assert rebuilt.digest() == record.digest()

    def test_migration_record_round_trips(self, migration_record):
        assert migration_record.activation is not None  # exercises per-rule keys
        self._assert_round_trips(migration_record)

    def test_scenario_record_round_trips(self, scenario_record):
        assert scenario_record.metrics
        self._assert_round_trips(scenario_record)

    def test_rule_install_record_round_trips(self, rule_install_record):
        assert rule_install_record.acknowledged_rules == 40
        self._assert_round_trips(rule_install_record)

    def test_summary_has_the_unified_keys(self, scenario_record):
        summary = scenario_record.summary()
        assert set(summary) == set(SUMMARY_KEYS)
        json.dumps(summary)  # flat view must be JSON-able as-is

    def test_legacy_accessors(self, migration_record, rule_install_record):
        pairs = migration_record.update_pairs()
        assert len(pairs) == len(migration_record.stats)
        assert migration_record.max_broken_time >= 0.0

    def test_from_dict_rejects_unknown_schema(self):
        with pytest.raises(ValueError, match="schema"):
            RunRecord.from_dict({"schema": 99})

    def test_digest_ignores_provenance(self, scenario_record):
        relabeled = RunRecord.from_dict(scenario_record.as_dict())
        relabeled.spec = {"entirely": "different"}
        assert relabeled.digest() == scenario_record.digest()

    def test_digest_matches_outcome_digest_and_ignores_excluded_keys(
            self, scenario_record):
        from repro.session.record import outcome_digest

        payload = scenario_record.as_dict()
        assert scenario_record.digest() == outcome_digest(payload)
        # Injecting any non-outcome key leaves the digest untouched...
        for key in OBSERVATION_KEYS + ("never_heard_of",):
            assert outcome_digest(dict(payload, **{key: {"x": 1}})) == \
                scenario_record.digest()
        # ...while touching an included outcome field moves it.
        assert outcome_digest(dict(payload, dropped_packets=12345)) != \
            scenario_record.digest()

    def test_render_run_summaries_reads_unified_keys(self, scenario_record):
        from repro.analysis.report import render_run_summaries

        text = render_run_summaries([scenario_record.summary()], title="t")
        assert "path-migration" in text
        assert "general" in text


# ---------------------------------------------------------------------------
# Observation cannot touch outcome (digest by inclusion)
# ---------------------------------------------------------------------------

_times = st.floats(min_value=0.0, max_value=1e3, allow_nan=False)
_maybe_time = st.none() | _times
_names = st.text(alphabet="abcdefgh-", min_size=1, max_size=8)
_counts = st.integers(min_value=0, max_value=10_000)
_json_dicts = st.dictionaries(_names, _counts | _times | _names, max_size=3)

_stats = st.builds(
    FlowUpdateStats, flow_id=_names, last_old_path=_maybe_time,
    first_new_path=_maybe_time, broken_time=_times, packets_sent=_counts,
    packets_received=_counts)
_activations = st.builds(
    ActivationDelays, technique=_names,
    per_rule=st.dictionaries(_counts, st.tuples(_times, _times, _times)
                             | st.tuples(st.none(), _times, st.none()),
                             max_size=4))
_traces = st.builds(
    TraceLog, technique=_names, kind=_names, seed=_counts,
    events=st.lists(st.builds(TraceEvent, ts=_times, phase=_names,
                              switch=_names, xid=st.none() | _counts,
                              detail=_names), max_size=3))

#: One strategy per observation field: its disarmed value or an armed one.
_observations = {
    "spec": _json_dicts,
    "fault_events": st.dictionaries(_names, _counts, max_size=3),
    "recovery": _json_dicts,
    "ledger": st.lists(st.builds(
        LedgerRow, switch=_names, xid=_counts, role=_names,
        activated_at=_maybe_time, confirmed_at=_maybe_time,
        confirmed_by=st.none() | _names, acked_at=_maybe_time), max_size=3),
    "trace": st.none() | _traces,
}

_records = st.builds(
    RunRecord, kind=_names, technique=_names, scenario=st.none() | _names,
    topology=_names, seed=_counts, scale=st.none() | _counts,
    update_start=_times, update_duration=_maybe_time, completed=st.booleans(),
    flows_run=_counts, plan_size=_counts, acknowledged_rules=_counts,
    usable_rate=_maybe_time, dropped_packets=_counts,
    mean_update_time=_maybe_time, completion_time=_maybe_time,
    stats=st.lists(_stats, max_size=3), activation=st.none() | _activations,
    metrics=_json_dicts, rum_description=_names, barrier_layer_held=_counts,
    rum_probe_rule_updates=_counts, rum_probes_injected=_counts,
    **_observations)


def _altered(key, value):
    """A JSON-able payload value guaranteed to differ from ``value``."""
    if key == "activation":  # the digest normalises this key's shape
        if value is None:
            return {"technique": "altered", "per_rule": {}}
        return dict(value, technique=value["technique"] + "'")
    return {"altered": value}


class TestObservationCannotTouchOutcome:
    @given(record=_records, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_no_observation_field_moves_the_digest(self, record, data):
        digest = record.digest()
        assert digest == outcome_digest(record.as_dict())
        for name, strategy in _observations.items():
            # Set, alter or clear: any other value of the field, armed or not.
            setattr(record, name, data.draw(strategy, label=name))
            assert record.digest() == digest
            assert outcome_digest(record.as_dict()) == digest
        payload = dict(record.as_dict(), never_heard_of={"x": 1})
        assert outcome_digest(payload) == digest

    @given(record=_records)
    @settings(max_examples=40, deadline=None)
    def test_every_outcome_key_moves_the_digest(self, record):
        payload = record.as_dict()
        assert tuple(record.outcome()) == OUTCOME_KEYS
        for key in OUTCOME_KEYS:
            altered = dict(payload, **{key: _altered(key, payload[key])})
            assert outcome_digest(altered) != record.digest(), key

    @given(record=_records)
    @settings(max_examples=60, deadline=None)
    def test_as_dict_round_trips_and_keeps_the_flat_layout(self, record):
        payload = json.loads(json.dumps(record.as_dict()))
        rebuilt = RunRecord.from_dict(payload)
        assert rebuilt.as_dict() == payload
        assert rebuilt.digest() == record.digest()
        # Outcome keys are always serialized; an observation key exists
        # exactly when its field is non-empty.
        armed = {name for name in OBSERVATION_KEYS[1:]
                 if getattr(record, name)}
        assert set(payload) == DISARMED_KEYS | armed
        assert set(OUTCOME_KEYS) == DISARMED_KEYS - {"spec"}


# ---------------------------------------------------------------------------
# Byte-identical results across the redesign
# ---------------------------------------------------------------------------

#: Digests of fixed-seed runs captured on the pre-session code (the three
#: hand-rolled engines); the session engine must reproduce them exactly.
#: Activation delays enter as sorted time tuples, without their OpenFlow
#: xids: on the pre-session code xids came from a process-global counter,
#: so the digests were taken without them, and the digest still hashes that
#: way although every session now numbers its xids from 1.
PRE_REDESIGN_DIGESTS = {
    "migration/barrier": "78df42a375ab8efa",
    "migration/general": "129a782e232c45cb",
    "migration/no-wait": "93bef8adeec26a6b",
    "scenario/path-migration/general": "1301cf7842486506",
    "scenario/path-migration/no-wait": "f7e26d079808eced",
    "scenario/link-failure/general": "a3143f5c7502e580",
    "rule-install/sequential": "b8db049f5997b15f",
    "rule-install/general": "5b6f412e2385a3d4",
}


def _sha(payload: str) -> str:
    import hashlib

    return hashlib.sha1(payload.encode("utf-8")).hexdigest()[:16]


def _stats_tuples(stats):
    return [(s.flow_id, s.last_old_path, s.first_new_path, s.broken_time,
             s.packets_sent, s.packets_received) for s in stats]


class TestPreRedesignEquivalence:
    @pytest.mark.parametrize("technique", ["barrier", "general", "no-wait"])
    def test_path_migration_digest_unchanged(self, technique):
        record = run_path_migration(
            technique,
            EndToEndParams(flow_count=12, rate_pps=250.0, seed=7,
                           max_update_duration=10.0),
        )
        payload = repr((record.technique, record.update_duration,
                        record.dropped_packets, _stats_tuples(record.stats),
                        sorted(record.activation.per_rule.values())
                        if record.activation else None))
        assert _sha(payload) == PRE_REDESIGN_DIGESTS[f"migration/{technique}"]

    @pytest.mark.parametrize("scenario,technique", [
        ("path-migration", "general"),
        ("path-migration", "no-wait"),
        ("link-failure", "general"),
    ])
    def test_scenario_digest_unchanged(self, scenario, technique):
        record = run_scenario(scenario, technique, _quick_scenario_params())
        payload = repr((record.scenario, record.technique, record.topology,
                        record.update_duration, record.completed,
                        record.dropped_packets, _stats_tuples(record.stats),
                        sorted(record.metrics.items())))
        assert _sha(payload) == PRE_REDESIGN_DIGESTS[f"scenario/{scenario}/{technique}"]

    @pytest.mark.parametrize("technique", ["sequential", "general"])
    def test_rule_install_digest_unchanged(self, technique):
        record = run_rule_install(
            technique, RuleInstallParams(rule_count=60, max_unconfirmed=30)
        )
        payload = repr((record.technique, record.update_duration,
                        record.acknowledged_rules,
                        sorted(record.activation.per_rule.values())
                        if record.activation else None))
        assert _sha(payload) == PRE_REDESIGN_DIGESTS[f"rule-install/{technique}"]


# ---------------------------------------------------------------------------
# A technique registered once runs through every entry point
# ---------------------------------------------------------------------------

@pytest.fixture()
def toy_technique():
    # Defined here, not at module level: defining the class registers it,
    # and a module-level toy would leak into every ``available_techniques()``
    # parametrisation collected after this module.
    class ToyInstantTechnique(AckTechnique):
        """Toy technique for tests: confirm a fixed 20 ms after forwarding."""

        name = "toy-instant"
        config_defaults = {"timeout": 0.0}

        def on_flowmod_forwarded(self, switch_name, record):
            self.sim.schedule_callback(0.02, self._confirm, switch_name, record.xid)

        def _confirm(self, switch_name, xid):
            self.layer.confirm_rule(switch_name, xid, by=self.name)

    try:
        yield ToyInstantTechnique.name
    finally:
        TECHNIQUES.pop(ToyInstantTechnique.name)


class TestToyTechniqueEverywhere:
    """Adding a technique requires edits only under ``core/techniques/``."""

    def test_session_path(self, toy_technique):
        record = run_path_migration(toy_technique, _quick_migration_params())
        assert record.completed
        assert record.technique == toy_technique
        # Its config defaults flow through the registry.
        assert config_for_technique(toy_technique).timeout == 0.0

    def test_scenario_path(self, toy_technique):
        record = run_scenario("path-migration", toy_technique,
                              _quick_scenario_params(flow_count=2))
        assert record.completed
        assert record.technique == toy_technique

    def test_campaign_path(self, toy_technique):
        spec = CampaignSpec(scenarios=["path-migration"],
                            techniques=[toy_technique],
                            scales=[1], seeds=[1], flow_count=2,
                            max_update_duration=5.0)
        spec.validate()  # the grid accepts any registered technique
        cells = spec.cells()
        assert len(cells) == 1
        record = run_cell(cells[0])
        assert record["status"] == "ok"
        assert record["technique"] == toy_technique
        assert record["digest"]
        assert record["session"]["technique"] == toy_technique

    def test_campaign_resume_over_session_records(self, toy_technique, tmp_path):
        spec = CampaignSpec(scenarios=["path-migration"],
                            techniques=[toy_technique],
                            scales=[1], seeds=[1, 2], flow_count=2,
                            max_update_duration=5.0)
        store = RunStore(tmp_path / "store")
        cells = spec.cells()
        # A previous campaign stored one cell's new-style record.
        store.put_summaries([run_cell(cells[0])])
        outcome = CampaignRunner(spec, tmp_path / "results.jsonl",
                                 max_workers=1, cache=store).run()
        assert (outcome.cached, outcome.ran) == (1, 1)
        assert ([record["cell_id"] for record in outcome.records]
                == [cells[0].cell_id, cells[1].cell_id])
