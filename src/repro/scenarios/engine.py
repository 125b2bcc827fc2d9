"""The generic scenario engine — a thin adapter over :mod:`repro.session`.

Runs any registered :class:`~repro.scenarios.base.Scenario` against any
registered acknowledgment technique: :func:`scenario_session` maps the
scenario protocol (topology builder, flows, preinstall, plan, markers,
metrics) onto a :class:`~repro.session.spec.SessionSpec`, and
:func:`run_scenario` executes it through ``SessionSpec.run()``.  The result
is the unified :class:`~repro.session.record.RunRecord`.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.scenarios.base import Scenario, ScenarioParams, get_scenario
from repro.session.record import RunRecord
from repro.session.spec import SessionKnobs, SessionSpec, Workload


def scenario_session(
    scenario: Union[str, Scenario],
    technique: str,
    params: Optional[ScenarioParams] = None,
) -> SessionSpec:
    """One (scenario, technique) run as a :class:`SessionSpec`.

    ``scenario`` is a registry name or an already-built instance (in which
    case ``params`` is ignored in favour of the instance's own).
    """
    if isinstance(scenario, str):
        scenario = get_scenario(scenario, params)
    params = scenario.params

    return SessionSpec(
        kind="scenario",
        technique=technique,
        topology=scenario.build_topology,
        workload=Workload(
            flows=scenario.flows,
            preinstall=scenario.preinstall,
            markers=scenario.new_path_switches,
            dropped_from_monitor=True,
        ),
        plan_builder=scenario.build_plan,
        metrics=scenario.metrics,
        faults=scenario.fault_plan(),
        trace=params.trace,
        knobs=SessionKnobs(
            seed=params.seed,
            warmup=params.warmup,
            grace=params.grace,
            settle=0.05,
            poll_interval=0.1,
            max_update_duration=params.max_update_duration,
            max_unconfirmed=params.max_unconfirmed or max(2 * params.flow_count, 16),
            rate_pps=params.rate_pps,
            recovery=scenario.recovery_policy(),
        ),
        labels={
            "scenario": scenario.name,
            "scale": params.scale,
            "params": params.as_dict(),
        },
    )


def run_scenario(
    scenario: Union[str, Scenario],
    technique: str,
    params: Optional[ScenarioParams] = None,
) -> RunRecord:
    """Run one scenario with one acknowledgment technique.

    ``technique`` is any registered technique name — including ``"no-wait"``
    for the consistency-free lower bound.
    """
    return scenario_session(scenario, technique, params).run()
