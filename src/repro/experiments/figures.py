"""The paper's evaluation as one catalogue: a figure is a row table and a view.

Every figure and table of the evaluation has the same shape — a list of
``(label, technique, parameter overrides)`` rows, one engine run per row, and
a text rendering of the resulting records — so each is a :class:`Figure` value
in :data:`FIGURES` rather than a module.  Running one returns
``{label: RunRecord}`` and nothing else; what a figure derives from its records
(Figure 1b's distributions, Table 1's normalisation) is a plain function over
that dict.  ``python -m repro.experiments [name]`` prints any of them, and
``tests/integration/test_paper_figures.py`` holds each ``claim`` to the
records and the rendered text to a golden.

A figure's default parameters are its quick scale; the paper's scale is the
explicit ``EndToEndParams.paper()`` / ``RuleInstallParams.paper_*()`` /
``MicrobenchParams.paper()`` passed to :meth:`Figure.run`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Sequence, Tuple

from repro.analysis.flowstats import broken_time_distribution
from repro.analysis.report import format_table, render_flow_update_curves
from repro.core.techniques.registry import TECHNIQUE_NO_WAIT
from repro.experiments import microbench
from repro.experiments.common import (
    EndToEndParams,
    RuleInstallParams,
    firewall_session,
    run_path_migration,
    run_rule_install,
)
from repro.session.record import RunRecord
from repro.switches.profiles import hp5406zl_profile, reordering_switch_profile

#: ``(label, technique, overrides)``: one engine run with the figure's
#: parameters ``.scaled(**overrides)``.
Row = Tuple[object, str, Dict[str, object]]
Results = Dict[object, RunRecord]


@dataclass(frozen=True)
class Figure:
    """One figure or table of the paper: what it claims and how to regenerate it."""

    name: str
    #: The paper's statement, in the words a reader compares the output with.
    claim: str
    #: ``engine(technique, params) -> RunRecord`` — one run per row.
    engine: Callable[[str, object], RunRecord]
    #: Default (quick-scale) second argument of the engine.
    params: object
    rows: Tuple[Row, ...]
    #: ``view(results) -> str``: the text a reader compares with the paper.
    view: Callable[[Results], str]

    def run(self, params: object = None) -> Results:
        """One engine run per row, keyed by the row's label."""
        params = self.params if params is None else params
        return {
            label: self.engine(technique,
                               params.scaled(**overrides) if overrides else params)
            for label, technique, overrides in self.rows
        }


# ---------------------------------------------------------------------------
# Views
# ---------------------------------------------------------------------------

def _num(value) -> str:
    """An optional measurement (``-`` when the run did not produce it)."""
    return "-" if value is None else f"{value:.3f}"


def _table(title: str, label_header: str,
           columns: Sequence[Tuple[str, Callable[[RunRecord], object]]]):
    """A view with one line per row: its label, then one cell per column."""
    headers = [label_header] + [header for header, _cell in columns]

    def view(results: Results) -> str:
        return format_table(
            headers,
            [[label] + [cell(record) for _header, cell in columns]
             for label, record in results.items()],
            title=title,
        )
    return view


def _curves_then(title: str, summary: Callable[[Results], str]):
    """Figures 6 and 7: the per-flow update-time curves, then a summary table."""
    def view(results: Results) -> str:
        curves = render_flow_update_curves(
            {label: record.update_pairs() for label, record in results.items()},
            title=title,
        )
        return curves + "\n\n" + summary(results)
    return view


def _delay_ms(pick: Callable) -> Callable[[RunRecord], str]:
    """One statistic of a record's activation delays, in whole milliseconds."""
    def cell(record: RunRecord) -> str:
        delays = record.activation
        return f"{pick(delays.summary()) * 1000:.0f}" if delays.delays else "-"
    return cell


_DROPPED = ("packets dropped", lambda r: r.dropped_packets)
_MEAN_UPDATE = ("mean flow update time [s]", lambda r: _num(r.mean_update_time))


# -- Figure 1b ---------------------------------------------------------------

#: Broken-time thresholds (seconds) reported for each technique, mirroring the
#: x axis of Figure 1b.
THRESHOLDS = (0.004, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3)
OF_BARRIERS, WORKING_ACKS = "OF barriers", "working acks (RUM)"


def broken_time_distributions(results: Results) -> Dict[object, Dict[float, float]]:
    """% of flows broken for at least each threshold, per row (Figure 1b's series)."""
    return {label: broken_time_distribution(record.stats, THRESHOLDS)
            for label, record in results.items()}


def _fig1_view(results: Results) -> str:
    distributions = broken_time_distributions(results)
    table = format_table(
        ["broken for at least", "% of flows (OF barriers)", "% of flows (RUM acks)"],
        [[f">= {threshold * 1000:.0f} ms",
          f"{distributions[OF_BARRIERS][threshold]:.1f}%",
          f"{distributions[WORKING_ACKS][threshold]:.1f}%"]
         for threshold in THRESHOLDS],
        title="Figure 1b: flows broken during a consistent update",
    )
    return (f"{table}\npackets dropped: "
            f"barriers={results[OF_BARRIERS].dropped_packets}, "
            f"RUM acks={results[WORKING_ACKS].dropped_packets}")


# -- Table 1 -----------------------------------------------------------------

#: Probe-rule update frequencies (real modifications per probe rule update).
PROBE_FREQUENCIES = (1, 2, 5, 10, 20)
#: Window sizes (maximum unconfirmed modifications).
WINDOW_SIZES = (20, 50, 100)


def table1_rows(probe_frequencies: Sequence[int] = PROBE_FREQUENCIES,
                window_sizes: Sequence[int] = WINDOW_SIZES) -> Tuple[Row, ...]:
    """The Table 1 sweep: per window K a barrier-only run — the denominator,
    labelled ``("barrier", K)`` — and one sequential-probing run per probe
    batch size N, labelled ``(N, K)``."""
    rows = []
    for window in window_sizes:
        rows.append((("barrier", window), "barrier", {"max_unconfirmed": window}))
        rows.extend(
            ((batch, window), "sequential",
             {"max_unconfirmed": window, "rum_overrides": {"probe_batch": batch}})
            for batch in probe_frequencies
        )
    return tuple(rows)


def normalised_rates(results: Results) -> Dict[Tuple[int, int], float]:
    """``(probe_batch, K) -> usable rate / barrier-only rate at the same K``."""
    return {
        (batch, window): ((record.usable_rate or 0.0)
                          / (results["barrier", window].usable_rate or float("nan")))
        for (batch, window), record in results.items() if batch != "barrier"
    }


def _table1_view(results: Results) -> str:
    rates = normalised_rates(results)
    windows = sorted({window for _batch, window in rates})
    return format_table(
        ["Probing frequency"] + [f"K = {window}" for window in windows],
        [[f"after {batch} update{'s' if batch != 1 else ''}"]
         + [f"{rates[batch, window] * 100:.0f}%" for window in windows]
         for batch in sorted({batch for batch, _window in rates})],
        title="Table 1: usable rule update rate (normalised to barrier-only rate)",
    )


# ---------------------------------------------------------------------------
# The catalogue
# ---------------------------------------------------------------------------

def _rum(**overrides) -> Dict[str, object]:
    return {"rum_overrides": overrides}


#: The control-plane-only configurations of Figures 6 and 8.
CONTROL_PLANE_ROWS: Tuple[Row, ...] = (
    ("barriers (baseline)", "barrier", {}),
    ("timeout", "timeout", _rum(timeout=0.3)),
    ("adaptive 200", "adaptive", _rum(assumed_rate=200.0)),
    ("adaptive 250", "adaptive", _rum(assumed_rate=250.0)),
)

_BARRIER_LAYER = {"with_barrier_layer": True, "barrier_every": 10}
_REORDERING = {"buffer_after_barrier": True,
               "hardware_profile": reordering_switch_profile()}

FIGURES: Dict[str, Figure] = {figure.name: figure for figure in (
    Figure(
        name="fig1",
        claim=(
            "Figure 1b — % of flows vs broken time during a consistent update.\n"
            "The paper's headline demonstration: a consistent path migration "
            "executed against a hardware switch drops packets when the "
            "controller trusts OpenFlow barriers (for up to ~168 ms per flow in "
            "this model at paper scale, about 58 % of the paper's ~290 ms), and "
            "drops nothing when RUM's data-plane acknowledgments are used instead."),
        engine=run_path_migration,
        params=EndToEndParams.quick(),
        rows=((OF_BARRIERS, "barrier", {}), (WORKING_ACKS, "general", {})),
        view=_fig1_view,
    ),
    Figure(
        name="fig2",
        claim=(
            "Figure 2 — the transient firewall bypass (motivation scenario).\n"
            "A theoretically safe update (\"X after Y, X after Z\") turns into a "
            "transient security hole when switch B acknowledges rules Y and Z "
            "before they are in its data plane: HTTP traffic from the untrusted "
            "host reaches the server without traversing the firewall.  With "
            "RUM's data-plane acknowledgments the ingress rule X is only "
            "installed once Z demonstrably forwards packets, so no HTTP packet "
            "can bypass the firewall."),
        engine=lambda technique, duration: firewall_session(technique, duration).run(),
        #: The observation window in seconds (violations are counted at its end).
        params=3.0,
        rows=(("barrier", "barrier", {}), ("general", "general", {})),
        view=_table(
            "Figure 2: transient firewall bypass during the update", "technique", [
                ("HTTP packets bypassing firewall",
                 lambda r: r.metrics["http_packets_bypassing_firewall"]),
                ("HTTP packets at firewall",
                 lambda r: r.metrics["http_packets_at_firewall"]),
                ("bulk packets delivered",
                 lambda r: r.metrics["bulk_packets_delivered"]),
                ("update duration [s]", lambda r: _num(r.update_duration)),
            ]),
    ),
    Figure(
        name="fig6",
        claim=(
            "Figure 6 — flow update times with control-plane-only techniques.\n"
            "Barriers are the fastest but drop packets; a 300 ms static timeout "
            "is safe but slow; the adaptive model assuming 200 modifications/s "
            "stays safe while the one assuming 250/s becomes optimistic once "
            "table occupancy slows the switch down and starts dropping packets "
            "again: from 286 flows at 250 pkt/s on the triangle (seed 7; seeds "
            "1, 2 and 4 agree, seed 3 starts at 287)."),
        engine=run_path_migration,
        params=EndToEndParams.quick(),
        rows=CONTROL_PLANE_ROWS,
        view=_curves_then(
            "Figure 6: flow update times, control-plane-only techniques",
            _table("Safety / performance summary", "technique", [
                _DROPPED, _MEAN_UPDATE,
                ("rules acked early",
                 lambda r: r.activation.negative_count if r.activation else "-"),
            ])),
    ),
    Figure(
        name="fig7",
        claim=(
            "Figure 7 — flow update times with the data-plane probing techniques.\n"
            "Both probing techniques are drop-free; sequential probing pays for "
            "the extra probe-rule modifications, while general probing only "
            "sends data-plane probes and ends up close to the \"no wait\" lower "
            "bound (all modifications issued at once, no consistency guarantee)."),
        engine=run_path_migration,
        params=EndToEndParams.quick(),
        rows=(
            ("sequential", "sequential", _rum(probe_batch=10)),
            ("general", "general", _rum(probe_window=30, probe_interval=0.01)),
            ("no wait", TECHNIQUE_NO_WAIT, {}),
        ),
        view=_curves_then(
            "Figure 7: flow update times, data-plane probing techniques",
            _table("Probing techniques vs the no-wait lower bound", "configuration", [
                _DROPPED, _MEAN_UPDATE,
                ("last flow updated at [s]", lambda r: _num(r.completion_time)),
            ])),
    ),
    Figure(
        name="fig8",
        claim=(
            "Figure 8 — delay between data-plane and control-plane activation.\n"
            "For R = 300 modifications issued all at once (K = 300), the "
            "per-rule delay between the moment a rule starts forwarding packets "
            "and the moment the controller is told it is installed.  Barriers: "
            "negative for every rule (down to ~-170 ms in this model; the paper "
            "measures up to ~-300 ms) — incorrect behaviour.  "
            "Static timeout: always positive but wastes a large fraction of the "
            "bound.  Adaptive: good when the model is right, dips below zero "
            "when it is not.  Both probing techniques: never negative and tight."),
        engine=run_rule_install,
        params=RuleInstallParams.paper_fig8(),  # R = K = 300 is already quick
        rows=CONTROL_PLANE_ROWS + (
            ("sequential", "sequential", _rum(probe_batch=10)),
            ("general", "general", {}),
        ),
        view=_table(
            "Figure 8: control-plane ack time minus data-plane activation time",
            "technique", [
                ("rules acked early", lambda r: r.activation.negative_count),
                ("min delay [ms]", _delay_ms(lambda s: s.minimum)),
                ("median [ms]", _delay_ms(lambda s: s.median)),
                ("p90 [ms]", _delay_ms(lambda s: s.p90)),
                ("max [ms]", _delay_ms(lambda s: s.maximum)),
            ]),
    ),
    Figure(
        name="table1",
        claim=(
            "Table 1 — usable rule-update rate with the sequential probing "
            "technique.\n"
            "The controller performs R modifications with at most K unconfirmed "
            "at any time; RUM updates its probe rule after every N real "
            "modifications.  The usable modification rate (probe-rule updates "
            "excluded) is reported as a percentage of the rate achieved with "
            "plain barriers: it grows with the batch size N (the probing "
            "overhead is amortised) and suffers when K is small relative to N "
            "(confirmations do not arrive fast enough to keep the switch busy)."),
        engine=run_rule_install,
        params=RuleInstallParams.quick(rule_count=600),  # the paper: R = 4000
        rows=table1_rows(),
        view=_table1_view,
    ),
    Figure(
        name="barrier-layer",
        claim=(
            "Section 5.1 (in-text) — reliable barrier layer performance.\n"
            "The barrier layer is stacked on top of the acknowledgment layer and "
            "the controller is an unmodified, barrier-based one (it sends a "
            "barrier after every N flow modifications and trusts the replies).  "
            "On a switch that does not reorder across barriers, the total update "
            "time matches the plain sequential-probing update; on a reordering "
            "switch, RUM must buffer the commands that follow every unconfirmed "
            "barrier, roughly doubling the update time relative to general "
            "probing — and making it several times slower when a barrier "
            "follows every single command."),
        engine=run_path_migration,
        params=EndToEndParams.quick(),
        rows=(
            # Reference: RUM-aware controller with plain probing.
            ("sequential (no barrier layer)", "sequential", {}),
            ("general (no barrier layer)", "general", {}),
            ("barrier layer / 10 mods (in-order switch)", "sequential",
             {**_BARRIER_LAYER, "hardware_profile": hp5406zl_profile()}),
            # The layer must buffer commands after each barrier.
            ("barrier layer / 10 mods (reordering switch)", "general",
             {**_BARRIER_LAYER, **_REORDERING}),
            ("barrier layer / every mod (reordering switch)", "general",
             {**_BARRIER_LAYER, **_REORDERING, "barrier_every": 1}),
        ),
        view=_table("Reliable barrier layer overhead (Section 5.1)", "configuration", [
            ("last flow updated [s]", lambda r: _num(r.completion_time)),
            ("plan acknowledged [s]", lambda r: _num(r.update_duration)),
            _DROPPED,
        ]),
    ),
    Figure(
        name="microbench",
        claim=microbench.__doc__.strip(),
        # No technique and no RunRecord: a row is a measurement, its result a rate.
        engine=microbench.measure,
        params=microbench.MicrobenchParams(),
        rows=tuple((name, name, {}) for name in microbench.MEASUREMENTS),
        view=microbench.render,
    ),
)}
