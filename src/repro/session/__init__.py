"""The unified experiment-session API.

One declarative way to run any update-acknowledgment experiment::

    from repro.session import SessionSpec
    from repro.experiments.common import migration_session, EndToEndParams

    spec = migration_session("general", EndToEndParams.quick())
    record = spec.run()                    # -> RunRecord
    print(record.dropped_packets, record.digest())

* :class:`SessionSpec` — a workload (any object with the scenario
  protocol of :class:`~repro.scenarios.base.Scenario`) + technique +
  :class:`StackSpec`/:class:`SessionKnobs`;
* :class:`RunRecord` — the single result schema every run path produces,
  with one canonical serializer (``as_dict``/``from_dict`` round-trip), a
  flat ``summary()`` for campaign files, and a stable ``digest()``;
* :func:`build_control_stack` — the controller/RUM wiring, driven by the
  technique registry of :mod:`repro.core.techniques.registry`.

Every entry point (``run_path_migration``, ``run_rule_install``, the rows of
``repro.experiments.figures.FIGURES``, ``repro.scenarios.engine.run_scenario``,
campaign cells) is a thin adapter over this API.
"""

from repro.session.engine import run_session
from repro.session.record import RECORD_SCHEMA, SUMMARY_KEYS, RunRecord
from repro.session.spec import (
    ActivationProbe,
    SessionKnobs,
    SessionSpec,
    StackSpec,
)
from repro.session.stack import ControlStack, build_control_stack

__all__ = [
    "ActivationProbe",
    "ControlStack",
    "RECORD_SCHEMA",
    "RunRecord",
    "SUMMARY_KEYS",
    "SessionKnobs",
    "SessionSpec",
    "StackSpec",
    "build_control_stack",
    "run_session",
]
