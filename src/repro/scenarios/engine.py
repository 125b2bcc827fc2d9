"""The generic scenario engine — a thin adapter over :mod:`repro.session`.

Runs any registered :class:`~repro.scenarios.base.Scenario` against any
registered acknowledgment technique: :func:`scenario_session` hands the
scenario itself to a :class:`~repro.session.spec.SessionSpec` as its
workload, with knobs from its params, and :func:`run_scenario` executes it
through ``SessionSpec.run()``.  The result is the unified
:class:`~repro.session.record.RunRecord`.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Optional, Union

from repro.scenarios.base import Scenario, ScenarioParams, get_scenario
from repro.session.record import RunRecord
from repro.session.spec import SessionKnobs, SessionSpec


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
        workload=scenario,
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
            "params": asdict(params),
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
