"""The paper's figures and tables, regenerated at quick scale and held to
the shape the paper reports.

Each test runs one ``repro.experiments`` entry point, prints the rows a reader
compares with the paper (pytest shows them when an assertion fails) and
asserts the claim.  Paper scale is ``EndToEndParams.paper()`` /
``RuleInstallParams.paper_*()`` / ``MicrobenchParams.paper()``.
"""

from repro.experiments import (
    barrier_layer_perf,
    fig1_broken_time,
    fig2_firewall,
    fig6_control_plane,
    fig7_probing,
    fig8_activation_delay,
    microbench,
    table1_update_rate,
)
from repro.experiments.common import EndToEndParams, RuleInstallParams
from repro.scenarios import ScenarioParams, run_scenario


def test_fig1_broken_time():
    result = fig1_broken_time.run_fig1(EndToEndParams.quick())
    print(fig1_broken_time.render(result))
    distributions = result.distributions()
    assert distributions["OF barriers"][0.004] > distributions["working acks (RUM)"][0.004]
    assert result.with_acks.dropped_packets == 0
    assert result.with_barriers.dropped_packets > 0


def test_fig2_firewall_bypass():
    result = fig2_firewall.run_fig2(duration=2.5)
    print(fig2_firewall.render(result))
    # With barrier acknowledgments the transient hole opens; with RUM it cannot.
    assert result.with_barriers.bypassed_packets > 0
    assert result.with_acks.bypassed_packets == 0
    assert result.with_acks.violations["http_packets_at_firewall"] > 0


def test_fig6_control_plane_techniques():
    result = fig6_control_plane.run_fig6(EndToEndParams.quick())
    print(fig6_control_plane.render(result))
    results = result.results
    # Barriers drop packets, the 300 ms timeout and adaptive-200 do not.
    assert results["barriers (baseline)"].dropped_packets > 0
    assert results["timeout"].dropped_packets == 0
    assert results["adaptive 200"].dropped_packets == 0
    # The timeout pays for safety with a slower update than the baseline.
    assert (results["timeout"].mean_update_time
            > results["barriers (baseline)"].mean_update_time)


def test_fig7_probing_techniques():
    result = fig7_probing.run_fig7(EndToEndParams.quick())
    print(fig7_probing.render(result))
    results = result.results
    # Probing never drops packets.
    assert results["sequential"].dropped_packets == 0
    assert results["general"].dropped_packets == 0
    # General probing lands close to the no-wait lower bound and ahead of
    # (or equal to) sequential probing, which pays for extra rule updates.
    assert results["general"].mean_update_time <= results["sequential"].mean_update_time + 0.02
    assert results["no wait"].mean_update_time <= results["general"].mean_update_time + 0.01


def test_fig8_activation_delay():
    result = fig8_activation_delay.run_fig8(
        RuleInstallParams.quick(rule_count=200, max_unconfirmed=200))
    print(fig8_activation_delay.render(result))
    delays = result.delays()
    # Barriers acknowledge every rule early; probing never does.
    assert delays["barriers (baseline)"].negative_count > 0
    assert delays["sequential"].never_negative
    assert delays["general"].never_negative
    assert delays["timeout"].negative_count == 0
    # The over-optimistic adaptive model is allowed to (and does) go negative.
    assert delays["adaptive 250"].negative_count >= delays["adaptive 200"].negative_count
    # Timeout wastes more time than general probing at the median.
    assert delays["timeout"].summary().median > delays["general"].summary().median


def test_table1_usable_update_rate():
    frequencies = (1, 5, 10, 20)
    windows = (20, 50, 100)
    result = table1_update_rate.run_table1(
        params=RuleInstallParams.quick(rule_count=400),
        probe_frequencies=frequencies, window_sizes=windows)
    print(table1_update_rate.render(result))
    # The usable rate grows with the probing batch size while confirmations
    # still arrive fast enough to keep the window full.  Like the paper's own
    # K = 20 column, the largest batch sizes can dip again once the batch is
    # comparable to the window (the switch idles waiting for confirmations),
    # so only sufficiently-funded windows are required to be monotone.
    for window in windows:
        rates = [result.normalised[(batch, window)] for batch in frequencies]
        assert rates[-1] > rates[0]
        for batch, previous, current in zip(frequencies[1:], rates, rates[1:]):
            if window >= 2 * batch:
                assert current >= previous - 0.08
    for batch in frequencies:
        assert (result.normalised[(batch, windows[-1])]
                >= result.normalised[(batch, windows[0])] - 0.05)


def test_microbenchmarks():
    result = microbench.run_microbench(microbench.MicrobenchParams.quick())
    print(microbench.render(result))
    # Rates land near the paper's measurements (the profile is calibrated to
    # them, the test verifies the model actually delivers them).
    assert abs(result.packet_out_rate - 7006) / 7006 < 0.1
    assert abs(result.packet_in_rate - 5531) / 5531 < 0.1
    # Interference: PacketIn processing keeps >= 96 % of the modification
    # rate; a 5:1 PacketOut load costs at most ~15 %.
    assert result.packet_in_interference >= 0.95
    assert result.packet_out_interference >= 0.82


def test_barrier_layer_overhead():
    result = barrier_layer_perf.run_barrier_layer_perf(EndToEndParams.quick())
    print(barrier_layer_perf.render(result))
    durations = result.durations()
    results = result.results
    # The barrier layer never drops packets in any configuration.
    assert all(res.dropped_packets == 0 for res in results.values())
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
