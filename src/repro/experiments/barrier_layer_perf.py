"""Section 5.1 (in-text) — reliable barrier layer performance.

The barrier layer is stacked on top of the acknowledgment layer and the
controller is an unmodified, barrier-based one (it sends a barrier after
every N flow modifications and trusts the replies).  The paper reports:

* on a switch that does not reorder across barriers, the total update time
  matches the plain sequential-probing update;
* on a reordering switch, RUM must buffer the commands that follow every
  unconfirmed barrier, roughly doubling the update time relative to general
  probing — and making it several times slower when a barrier follows every
  single command.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.analysis.report import format_table
from repro.experiments.common import EndToEndParams, run_path_migration
from repro.session.record import RunRecord
from repro.switches.profiles import hp5406zl_profile, reordering_switch_profile


@dataclass
class BarrierLayerResult:
    """Update durations of the compared configurations."""

    results: Dict[str, RunRecord]

    def durations(self) -> Dict[str, Optional[float]]:
        """Completion time (last flow on the new path) per configuration."""
        return {name: result.completion_time for name, result in self.results.items()}

    def as_dict(self) -> Dict[str, object]:
        """JSON-able summary."""
        return {name: result.as_dict() for name, result in self.results.items()}


def run_barrier_layer_perf(params: Optional[EndToEndParams] = None) -> BarrierLayerResult:
    """Compare the barrier layer against the bare probing techniques."""
    params = params or EndToEndParams.default()
    results: Dict[str, RunRecord] = {}

    # Reference: RUM-aware controller with plain probing (no barrier layer).
    results["sequential (no barrier layer)"] = run_path_migration("sequential", params)
    results["general (no barrier layer)"] = run_path_migration("general", params)

    # Well-behaved ordering: barrier layer over sequential probing, barrier
    # after every 10 modifications.
    results["barrier layer / 10 mods (in-order switch)"] = run_path_migration(
        "sequential",
        params.scaled(with_barrier_layer=True, buffer_after_barrier=False,
                      barrier_every=10,
                      hardware_profile=hp5406zl_profile()),
    )

    # Reordering switch: the layer must buffer commands after each barrier.
    results["barrier layer / 10 mods (reordering switch)"] = run_path_migration(
        "general",
        params.scaled(with_barrier_layer=True, buffer_after_barrier=True,
                      barrier_every=10,
                      hardware_profile=reordering_switch_profile()),
    )
    results["barrier layer / every mod (reordering switch)"] = run_path_migration(
        "general",
        params.scaled(with_barrier_layer=True, buffer_after_barrier=True,
                      barrier_every=1,
                      hardware_profile=reordering_switch_profile()),
    )
    return BarrierLayerResult(results=results)


def render(result: BarrierLayerResult) -> str:
    """Text rendering of the barrier-layer comparison."""
    rows = []
    for name, res in result.results.items():
        rows.append([
            name,
            f"{res.completion_time:.3f}" if res.completion_time is not None else "-",
            f"{res.update_duration:.3f}" if res.update_duration is not None else "-",
            res.dropped_packets,
        ])
    return format_table(
        ["configuration", "last flow updated [s]", "plan acknowledged [s]", "packets dropped"],
        rows,
        title="Reliable barrier layer overhead (Section 5.1)",
    )


if __name__ == "__main__":  # pragma: no cover - manual invocation helper
    print(render(run_barrier_layer_perf()))
