"""The four reference workloads.

Each workload is a fixed *mix* of distinct calls; ``--seed`` drives the cell
seeds and the (per-repetition) call order, nothing else.  A **call** is the
one public function a user of the program blocks on; a **cell** is one
simulated (or re-emitted) run.  Only public entry points of ``repro`` are
called, and always through their module attribute (``runner.run_cell``, not
a name bound at import time), so the span pass's wrappers cannot be bypassed
from here.

``repro`` is imported lazily, inside the functions that need it: importing
this module must work wherever ``run.py --agree`` does.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

#: ``--seed`` used when none is given; the only seed ``golden.json`` pins.
DEFAULT_SEED = 0

TECHNIQUES = ("barrier", "general", "sequential", "adaptive", "timeout")


def cell_seeds(seed: int, count: int) -> List[int]:
    """The ``count`` simulation seeds a benchmark seed expands to (0 -> 1, 2, ...).

    One seed per cell rather than a few shared by the whole mix: a topology
    draw shared by every technique moves all of them together, and a run's
    total work then swings twice as far from seed to seed (3 % vs 1.5 %).
    """
    return [abs(seed) * 64 + offset + 1 for offset in range(count)]


@dataclass(frozen=True)
class Call:
    """One distinct call of a workload's mix."""

    #: Stable, human-readable identity; the golden file is keyed by it.
    key: str
    #: Simulated (or re-emitted) runs this call stands for.
    cells: int
    #: JSON-able arguments; enters the run's config hash.
    params: Dict[str, object] = field(default_factory=dict, compare=False)


@dataclass
class Context:
    """Per-process state a workload's calls share."""

    #: Scratch directory inside the benchmark's ``out/`` tree.
    tmp: Path
    smoke: bool = False
    #: Whatever :meth:`Workload.setup` prepared (the cold campaign, ...).
    state: Dict[str, object] = field(default_factory=dict)


class Workload:
    """A named mix of calls plus how to run and check one of them."""

    name = ""
    why = ""
    #: What one call is, for the printed legend.
    call = ""
    #: Layers (``src/repro/<layer>``) whose spans must fire on this workload;
    #: every other layer's spans must stay silent.
    layers: frozenset = frozenset()
    #: Wall seconds one repetition of the full mix takes on the reference box
    #: (``--list`` only; the timed pass is bounded by ``--seconds``).
    nominal_repetition_s = 0.0
    nominal_setup_s = 0.0

    def distinct_calls(self, seed: int, smoke: bool) -> List[Call]:
        raise NotImplementedError

    def warmup_calls(self, calls: List[Call]) -> List[Call]:
        """The untimed pass: every other call, so each (scenario, technique)
        code path and topology cache entry is warm before the clock starts."""
        return calls[::2] or calls

    def setup(self, ctx: Context, calls: List[Call]) -> Dict[str, float]:
        """One-off preparation counted in ``setup_s``; returns extra metrics."""
        return {}

    def run(self, call: Call, ctx: Context):
        """The timed region: exactly the one public call."""
        raise NotImplementedError

    def outcome(self, call: Call, raw, ctx: Context) -> Dict[str, object]:
        """Untimed: reduce ``raw`` to ``digest``/``status``/``completed`` (+ counts)."""
        raise NotImplementedError


def _cell_outcome(record: Dict[str, object]) -> Dict[str, object]:
    outcome = {
        "digest": record.get("digest"),
        "status": record.get("status"),
        "completed": record.get("completed"),
        "technique": (record.get("config") or {}).get("technique"),
        "fault_events": sum((record.get("faults") or {}).values()),
        "resyncs": (record.get("recovery") or {}).get("resyncs_completed", 0),
        "rules_reinstalled": (record.get("recovery") or {}).get(
            "rules_reinstalled", 0),
    }
    if record.get("status") == "error":
        outcome["error"] = record.get("error")
    gaps = record.get("activation_gaps")
    if gaps is not None:
        outcome["early_acks"] = sum(int(entry["early"]) for entry in gaps.values())
    return outcome


class _CellWorkload(Workload):
    """Calls are ``repro.campaign.runner.run_cell(cell)``."""

    call = "repro.campaign.runner.run_cell(cell)"

    def _cell(self, call: Call):
        from repro.campaign.grid import CampaignCell

        return CampaignCell(**call.params)

    def run(self, call: Call, ctx: Context):
        from repro.campaign import runner

        return runner.run_cell(self._cell(call))

    def outcome(self, call: Call, raw, ctx: Context) -> Dict[str, object]:
        return _cell_outcome(raw)


class MigrationDataplane(_CellWorkload):
    name = "migration-dataplane"
    why = ("Fig. 1/7 shape at high packet rate: net+switches+sim+packet carry "
           "~80 % of the time, so kernel, link-train and forwarding work "
           "shows here and almost nowhere else")
    layers = frozenset({"campaign", "scenarios", "session", "sim", "net",
                        "switches", "openflow", "probing", "core",
                        "controller", "analysis"})
    nominal_repetition_s = 3.3
    nominal_setup_s = 2.3

    MIX = (("path-migration", "fat-tree"), ("ecmp-rebalance", "leaf-spine"),
           ("link-failure", "fat-tree"))

    def distinct_calls(self, seed: int, smoke: bool) -> List[Call]:
        if smoke:
            picks = [("path-migration", "fat-tree", "barrier"),
                     ("ecmp-rebalance", "leaf-spine", "general"),
                     ("link-failure", "fat-tree", "timeout")]
            flows, rate = 2, 100.0
        else:
            picks = [(scenario, topology, technique)
                     for scenario, topology in self.MIX
                     for technique in TECHNIQUES
                     for _ in range(2)]
            flows, rate = 16, 200.0
        return [
            Call(key=f"{scenario}@{topology}/{technique}/seed={cell_seed}",
                 cells=1,
                 params=dict(scenario=scenario, technique=technique,
                             seed=cell_seed, topology=topology,
                             flow_count=flows, rate_pps=rate,
                             max_update_duration=5.0))
            for (scenario, topology, technique), cell_seed
            in zip(picks, cell_seeds(seed, len(picks)))
        ]


class OutageTraced(_CellWorkload):
    name = "outage-traced"
    why = ("drives controller/switches/sim differently: crash-wipe, shadow "
           "resyncs, retransmissions, armed tracer, Perfetto shard export and "
           "gap analysis; obs/recovery/faults run here and nowhere else")
    call = "repro.campaign.runner.run_cell(cell, trace_dir=<tmp>)"
    layers = MigrationDataplane.layers | {"faults", "recovery", "obs"}
    nominal_repetition_s = 3.8
    nominal_setup_s = 2.1

    TECHNIQUES = ("barrier", "general", "adaptive", "timeout")
    SWEEP_FAULT = "ack-loss(probability=0.3)+delay-spike(probability=0.3)"

    def distinct_calls(self, seed: int, smoke: bool) -> List[Call]:
        # A CampaignCell passes its default fault="none" through verbatim,
        # which silently disarms the recovery scenarios' own timelines: name
        # each scenario's default_timeline explicitly.
        from repro.scenarios.base import SCENARIOS

        faults = {
            "rolling-upgrade": SCENARIOS["rolling-upgrade"].default_timeline,
            "correlated-tor-outage":
                SCENARIOS["correlated-tor-outage"].default_timeline,
            "fault-sweep": self.SWEEP_FAULT,
        }
        if smoke:
            picks = [("rolling-upgrade", "barrier"),
                     ("correlated-tor-outage", "general"),
                     ("fault-sweep", "timeout")]
            flows = 4
        else:
            picks = [(scenario, technique) for scenario in faults
                     for technique in self.TECHNIQUES
                     for _ in range(3)]
            flows = 16
        return [
            Call(key=f"{scenario}/{technique}/seed={cell_seed}", cells=1,
                 params=dict(scenario=scenario, technique=technique,
                             seed=cell_seed, flow_count=flows, rate_pps=25.0,
                             fault=faults[scenario], recovery="on", trace=True))
            for (scenario, technique), cell_seed
            in zip(picks, cell_seeds(seed, len(picks)))
        ]

    def run(self, call: Call, ctx: Context):
        from repro.campaign import runner

        return runner.run_cell(self._cell(call), trace_dir=ctx.tmp / "traces")


class RuleInstallControlplane(Workload):
    name = "rule-install-controlplane"
    why = ("paper §5.2/Table 1 shape with no data traffic: openflow, probing, "
           "core and controller dominate, net stays under 5 %; the bypass "
           "workload for every data-plane optimisation")
    call = "repro.experiments.common.run_rule_install(technique, params)"
    layers = frozenset({"session", "sim", "net", "switches", "openflow",
                        "probing", "core", "controller"})
    nominal_repetition_s = 3.4
    nominal_setup_s = 2.3

    WINDOWS = (20, 50, 100)

    def distinct_calls(self, seed: int, smoke: bool) -> List[Call]:
        if smoke:
            picks = [("barrier", 20), ("general", 20), ("sequential", 20)]
            rules = 40
        else:
            picks = [(technique, window) for technique in TECHNIQUES
                     for window in self.WINDOWS
                     for _ in range(2)]
            rules = 300
        return [
            Call(key=f"{technique}/K={window}/seed={cell_seed}", cells=1,
                 params=dict(technique=technique, rule_count=rules,
                             max_unconfirmed=window, seed=cell_seed,
                             rum_overrides=({"probe_batch": 5}
                                            if technique == "sequential" else {})))
            for (technique, window), cell_seed
            in zip(picks, cell_seeds(seed, len(picks)))
        ]

    def run(self, call: Call, ctx: Context):
        from repro.experiments import common

        params = call.params
        return common.run_rule_install(
            params["technique"],
            common.RuleInstallParams.quick(rule_count=params["rule_count"]).scaled(
                max_unconfirmed=params["max_unconfirmed"], seed=params["seed"],
                rum_overrides=dict(params["rum_overrides"])))

    def outcome(self, call: Call, raw, ctx: Context) -> Dict[str, object]:
        return {
            "digest": raw.digest(),
            "status": "ok" if raw.completed else "incomplete",
            "completed": raw.completed,
            "technique": raw.technique,
        }


class CampaignReplay(Workload):
    name = "campaign-replay"
    why = ("simulates nothing when timed: record encoding, resume scanning, "
           "store lookups and report rendering move only it, sim..controller "
           "must not; set-up is the pooled cold campaign + store ingest")
    call = ("RunStore(root) -> CampaignRunner(cache=store).run -> "
            "render_report -> RunStore.verify")
    layers = frozenset({"campaign", "store"})
    nominal_repetition_s = 0.02
    nominal_setup_s = 3.1

    def _spec(self, seed: int, smoke: bool):
        from repro.campaign.grid import CampaignSpec

        if smoke:
            return CampaignSpec(scenarios=["path-migration"],
                                techniques=["barrier", "general"],
                                seeds=cell_seeds(seed, 2), flow_count=2)
        return CampaignSpec(
            scenarios=["path-migration", "ecmp-rebalance", "link-failure"],
            techniques=list(TECHNIQUES), seeds=cell_seeds(seed, 4))

    def distinct_calls(self, seed: int, smoke: bool) -> List[Call]:
        return [Call(key="replay-cycle", cells=4 if smoke else 60,
                     params=dict(seed=seed, smoke=smoke))]

    def warmup_calls(self, calls: List[Call]) -> List[Call]:
        return calls

    def setup(self, ctx: Context, calls: List[Call]) -> Dict[str, float]:
        """The cold campaign, through the worker pool as a user runs it, then
        one ingest into the store every timed cycle replays from.

        The ingest is set-up, not part of the cycle: it creates and renames
        ~5 files per cell, and on the checkout's disk (ext4, online discard)
        that churn swung the same cycle between 105 and 257 ms from one run
        to the next.  Its cost is still reported (``store.ingest_ms_per_cell``)
        and still counts in ``setup_s``.
        """
        import time

        from repro import store as store_package
        from repro.campaign import report, runner

        call = calls[0]
        spec = self._spec(call.params["seed"], ctx.smoke)
        results = ctx.tmp / "cold" / "results.jsonl"
        started = time.perf_counter()
        cold = runner.CampaignRunner(spec, results, max_workers=1).run()
        wall = time.perf_counter() - started
        records = runner.load_records(results)
        digests = {record.get("digest") for record in records}
        # Two cells with one outcome digest share one store object, and the
        # cached re-run then emits the wrong cell's record (see README,
        # "defects steered around"): the grid must stay digest-distinct.
        if cold.failed or not len(digests) == len(records) == call.cells:
            raise RuntimeError(
                f"cold campaign: {cold.failed} failed, {len(records)} records, "
                f"{len(digests)} distinct digests, expected {call.cells}")
        started = time.perf_counter()
        store_package.RunStore(ctx.tmp / "store").ingest(results)
        ingest_wall = time.perf_counter() - started
        ctx.state.update(
            spec=spec,
            cell_ids={record["cell_id"] for record in records},
            pairs=sorted((record["cell_id"], record["digest"])
                         for record in records),
            report_tail=report.render_report(results).split("\n", 1)[1])
        return {"cold_cells_per_s": call.cells / wall,
                "ingest_ms_per_cell": 1000.0 * ingest_wall / call.cells}

    def run(self, call: Call, ctx: Context):
        from repro import store as store_package
        from repro.campaign import report, runner

        results = ctx.tmp / "cycle" / "results.jsonl"
        # A fresh RunStore re-reads the on-disk index, as a new process would.
        store = store_package.RunStore(ctx.tmp / "store")
        replay = runner.CampaignRunner(ctx.state["spec"], results,
                                       max_workers=1, cache=store).run()
        return replay, report.render_report(results), store.verify()

    def outcome(self, call: Call, raw, ctx: Context) -> Dict[str, object]:
        replay, rendered, problems = raw
        shutil.rmtree(ctx.tmp / "cycle")
        emitted = {record["cell_id"] for record in replay.records}
        faults = []
        if (replay.ran, replay.cached) != (0, call.cells):
            faults.append(f"ran {replay.ran} / cached {replay.cached}")
        if emitted != ctx.state["cell_ids"]:
            faults.append("re-emitted cell_id set differs from the cold run")
        # Line 1 names the results path; everything below must be identical.
        if rendered.split("\n", 1)[1] != ctx.state["report_tail"]:
            faults.append("report differs from the cold report")
        if problems:
            faults.append(f"store.verify: {problems[0]}")
        pairs = sorted((record["cell_id"], record["digest"])
                       for record in replay.records)
        if pairs != ctx.state["pairs"]:
            faults.append("re-emitted outcome digests differ from the cold run")
        outcome = {
            "digest": hashlib.sha1(json.dumps(pairs).encode()).hexdigest()[:16],
            "status": "error" if faults else "ok",
            "completed": not faults,
        }
        if faults:
            outcome["error"] = "; ".join(faults)
        return outcome


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (MigrationDataplane(), RuleInstallControlplane(),
                     OutageTraced(), CampaignReplay())
}


def config_hash(workload: str, seed: int, seconds: float, smoke: bool) -> str:
    """Ten hex digits addressing one run configuration (megaphone-style).

    The call list is a pure function of these four values, so they are the
    whole configuration.
    """
    canonical = json.dumps([workload, seed, seconds, smoke])
    return hashlib.sha1(canonical.encode("utf-8")).hexdigest()[:10]
