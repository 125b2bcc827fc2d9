"""The paper's figures and tables, regenerated at quick scale and held to
the shape the paper reports.

Each test runs one entry of ``repro.experiments.figures.FIGURES`` once, prints
the rows a reader compares with the paper (pytest shows them when an assertion
fails), asserts the figure's claim over the records — ``CLAIMS``, keyed like
the catalogue — and compares the rendered text with the golden captured from
the per-figure modules the catalogue replaced (``paper_figures_golden.json``;
re-capture it only for a change that means to move a figure).  Paper scale is
``EndToEndParams.paper()`` / ``RuleInstallParams.paper_*()`` /
``MicrobenchParams.paper()``.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.experiments.common import EndToEndParams, RuleInstallParams
from repro.experiments.figures import (
    FIGURES,
    OF_BARRIERS,
    WORKING_ACKS,
    broken_time_distributions,
    normalised_rates,
    table1_rows,
)
from repro.experiments.microbench import MicrobenchParams, kept_under
from repro.scenarios import ScenarioParams, run_scenario

GOLDEN = json.loads(
    Path(__file__).with_name("paper_figures_golden.json").read_text(encoding="utf-8"))

TABLE1_FREQUENCIES = (1, 5, 10, 20)
TABLE1_WINDOWS = (20, 50, 100)


def _fig1_claim(results):
    distributions = broken_time_distributions(results)
    assert distributions[OF_BARRIERS][0.004] > distributions[WORKING_ACKS][0.004]
    assert results[WORKING_ACKS].dropped_packets == 0
    assert results[OF_BARRIERS].dropped_packets > 0


def _fig2_claim(results):
    # With barrier acknowledgments the transient hole opens; with RUM it cannot.
    assert results["barrier"].metrics["http_packets_bypassing_firewall"] > 0
    assert results["general"].metrics["http_packets_bypassing_firewall"] == 0
    assert results["general"].metrics["http_packets_at_firewall"] > 0


def _fig6_claim(results):
    # Barriers drop packets, the 300 ms timeout and adaptive-200 do not.
    assert results["barriers (baseline)"].dropped_packets > 0
    assert results["timeout"].dropped_packets == 0
    assert results["adaptive 200"].dropped_packets == 0
    # The timeout pays for safety with a slower update than the baseline.
    assert (results["timeout"].mean_update_time
            > results["barriers (baseline)"].mean_update_time)


def _fig7_claim(results):
    # Probing never drops packets.
    assert results["sequential"].dropped_packets == 0
    assert results["general"].dropped_packets == 0
    # General probing lands close to the no-wait lower bound and ahead of
    # (or equal to) sequential probing, which pays for extra rule updates.
    assert results["general"].mean_update_time <= results["sequential"].mean_update_time + 0.02
    assert results["no wait"].mean_update_time <= results["general"].mean_update_time + 0.01


def _fig8_claim(results):
    delays = {label: record.activation for label, record in results.items()}
    # Barriers acknowledge every rule early; probing never does.
    assert delays["barriers (baseline)"].negative_count > 0
    assert delays["sequential"].never_negative
    assert delays["general"].never_negative
    assert delays["timeout"].negative_count == 0
    # The over-optimistic adaptive model is allowed to (and does) go negative.
    assert delays["adaptive 250"].negative_count >= delays["adaptive 200"].negative_count
    # Timeout wastes more time than general probing at the median.
    assert delays["timeout"].summary().median > delays["general"].summary().median
    # General probing acknowledges within tens of milliseconds of activation.
    assert delays["general"].summary().p90 < 0.05


def _table1_claim(results):
    # The usable rate grows with the probing batch size while confirmations
    # still arrive fast enough to keep the window full.  Like the paper's own
    # K = 20 column, the largest batch sizes can dip again once the batch is
    # comparable to the window (the switch idles waiting for confirmations),
    # so only sufficiently-funded windows are required to be monotone.
    normalised = normalised_rates(results)
    frequencies, windows = TABLE1_FREQUENCIES, TABLE1_WINDOWS
    for window in windows:
        rates = [normalised[(batch, window)] for batch in frequencies]
        assert rates[-1] > rates[0]
        for batch, previous, current in zip(frequencies[1:], rates, rates[1:]):
            if window >= 2 * batch:
                assert current >= previous - 0.08
    for batch in frequencies:
        assert (normalised[(batch, windows[-1])]
                >= normalised[(batch, windows[0])] - 0.05)


def _microbench_claim(rates):
    # Rates land near the paper's measurements (the profile is calibrated to
    # them, the test verifies the model actually delivers them).
    assert rates["PacketOut"] == pytest.approx(7006, rel=0.1)
    assert rates["PacketIn"] == pytest.approx(5531, rel=0.1)
    # Interference: PacketIn processing keeps >= 96 % of the modification
    # rate; a 5:1 PacketOut load costs at most ~15 %.
    assert kept_under(rates, "PacketIn") >= 0.95
    assert kept_under(rates, "PacketOut") >= 0.82


def _barrier_layer_claim(results):
    durations = {label: record.completion_time for label, record in results.items()}
    # The barrier layer never drops packets in any configuration.
    assert all(record.dropped_packets == 0 for record in results.values())
    # On a non-reordering switch the layered update is comparable to plain
    # sequential probing.
    assert (durations["barrier layer / 10 mods (in-order switch)"]
            <= durations["sequential (no barrier layer)"] * 1.6)
    # Buffering for a reordering switch costs real time, and per-command
    # barriers cost even more.
    assert (durations["barrier layer / 10 mods (reordering switch)"]
            >= durations["general (no barrier layer)"])
    assert (durations["barrier layer / every mod (reordering switch)"]
            >= durations["barrier layer / 10 mods (reordering switch)"])


CLAIMS = {
    "fig1": _fig1_claim,
    "fig2": _fig2_claim,
    "fig6": _fig6_claim,
    "fig7": _fig7_claim,
    "fig8": _fig8_claim,
    "table1": _table1_claim,
    "barrier-layer": _barrier_layer_claim,
    "microbench": _microbench_claim,
}

#: A second parameter point for the figures whose claim used to be checked
#: twice, here and in ``test_end_to_end.py``.
SECOND_POINTS = {
    "fig1": EndToEndParams(flow_count=30, rate_pps=150.0, seed=3),
    "fig2": 2.0,
    "fig8": RuleInstallParams(rule_count=120, max_unconfirmed=120),
    "microbench": MicrobenchParams(packet_out_count=800, packet_in_duration=0.4),
}


def _hold(name, point, params, figure=None):
    """One run of the figure: its claim over the records, its text against the golden."""
    figure = figure or FIGURES[name]
    results = figure.run(params)
    text = figure.view(results)
    print(text)
    CLAIMS[name](results)
    assert text.split("\n") == GOLDEN[f"{name}/{point}"]


def test_every_catalogue_entry_has_a_claim_and_a_golden():
    assert set(CLAIMS) == set(FIGURES)
    assert set(GOLDEN) == ({f"{name}/first" for name in FIGURES}
                           | {f"{name}/second" for name in SECOND_POINTS})


def test_fig1_broken_time():
    _hold("fig1", "first", EndToEndParams.quick())


def test_fig2_firewall_bypass():
    _hold("fig2", "first", 2.5)


def test_fig6_control_plane_techniques():
    _hold("fig6", "first", EndToEndParams.quick())


def test_fig7_probing_techniques():
    _hold("fig7", "first", EndToEndParams.quick())


def test_fig8_activation_delay():
    _hold("fig8", "first", RuleInstallParams.quick(rule_count=200, max_unconfirmed=200))


def test_table1_usable_update_rate():
    sweep = dataclasses.replace(
        FIGURES["table1"], rows=table1_rows(TABLE1_FREQUENCIES, TABLE1_WINDOWS))
    _hold("table1", "first", RuleInstallParams.quick(rule_count=400), figure=sweep)


def test_microbenchmarks():
    _hold("microbench", "first", MicrobenchParams())


def test_barrier_layer_overhead():
    _hold("barrier-layer", "first", EndToEndParams.quick())


@pytest.mark.parametrize("name", sorted(SECOND_POINTS))
def test_the_claim_holds_at_a_second_parameter_point(name):
    _hold(name, "second", SECOND_POINTS[name])


# The paper's claims generalize beyond the triangle: on a generated fabric,
# barrier acknowledgments still break consistency while data-plane
# acknowledgments keep updates safe at a bounded latency cost.

def _on_generated_topology(scenario, **overrides):
    params = ScenarioParams(flow_count=8, warmup=0.2, grace=0.3, **overrides)
    return {technique: run_scenario(scenario, technique, params)
            for technique in ("barrier", "general")}


def test_path_migration_fat_tree():
    results = _on_generated_topology("path-migration", topology="fat-tree", seed=3)
    for technique, result in results.items():
        print(f"{technique}: {result.as_dict()}")
    assert results["barrier"].completed and results["general"].completed
    # The buggy fabric switches break the barrier-based migration but not
    # the probing-based one (generalized Figure 1b/7).
    assert results["barrier"].dropped_packets > 0
    assert results["general"].dropped_packets == 0
    # Truthfulness costs update latency, as in the paper.
    assert (results["general"].mean_update_time
            > results["barrier"].mean_update_time)


def test_firewall_rollout_generated():
    results = _on_generated_topology("firewall-rollout", topology="linear", scale=2, seed=1)
    for technique, result in results.items():
        print(f"{technique}: {result.metrics}")
    # With truthful acknowledgments the firewall hole cannot open.
    assert results["general"].metrics["http_bypassing_firewall"] == 0
    assert results["general"].metrics["bulk_delivered"] > 0
