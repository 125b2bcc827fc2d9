"""Experiment harness.

* :mod:`repro.experiments.figures` — the paper's evaluation as one catalogue,
  ``FIGURES``: Figures 1b, 2, 6, 7, 8, Table 1, the §5.1 barrier layer and the
  §5.2 micro-benchmarks (:mod:`repro.experiments.microbench`), each a claim, a
  table of rows and a view.  ``python -m repro.experiments [name]`` runs one.
* :mod:`repro.experiments.common` — the engines the rows run through.
"""

from repro.experiments.common import (
    EndToEndParams,
    MigrationSpec,
    RuleInstallParams,
    firewall_session,
    migration_session,
    rule_install_session,
    run_path_migration,
    run_rule_install,
)

__all__ = [
    "EndToEndParams",
    "MigrationSpec",
    "RuleInstallParams",
    "firewall_session",
    "migration_session",
    "rule_install_session",
    "run_path_migration",
    "run_rule_install",
]
