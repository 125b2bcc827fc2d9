"""Experiment harness.

One module per figure/table of the paper's evaluation plus the motivation
scenario.  Every module exposes a ``run_*`` function returning a plain result
object (JSON-able via ``as_dict()`` where applicable) and a ``render()``
helper that prints the same rows/series the paper reports;
``tests/integration/test_paper_figures.py`` holds each to the paper's shape.

=========================  ====================================================
Module                     Paper result
=========================  ====================================================
``fig1_broken_time``       Figure 1b — % of flows vs broken time
``fig2_firewall``          Figure 2  — transient firewall bypass (motivation)
``fig6_control_plane``     Figure 6  — flow update times, control-plane techniques
``fig7_probing``           Figure 7  — flow update times, probing techniques
``fig8_activation_delay``  Figure 8  — data-plane vs control-plane activation delay
``table1_update_rate``     Table 1   — usable update rate under sequential probing
``barrier_layer_perf``     §5.1      — reliable barrier layer overhead
``microbench``             §5.2      — PacketOut/PacketIn rates and interference
=========================  ====================================================
"""

from repro.experiments.common import (
    ControlStack,
    EndToEndParams,
    MigrationSpec,
    RuleInstallParams,
    build_control_stack,
    migration_session,
    rule_install_session,
    run_path_migration,
    run_rule_install,
)

__all__ = [
    "ControlStack",
    "EndToEndParams",
    "MigrationSpec",
    "RuleInstallParams",
    "build_control_stack",
    "migration_session",
    "rule_install_session",
    "run_path_migration",
    "run_rule_install",
]
