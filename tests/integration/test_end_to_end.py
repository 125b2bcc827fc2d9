"""Integration tests: the paper's end-to-end claims at reduced scale.

These run the full stack (controller, RUM, switches, traffic) and check the
*qualitative* results of the evaluation: barriers drop packets, RUM's
techniques do not, and probing is faster than a static timeout.  The
per-figure claims (Figure 1b's distributions, Figure 8's delay signs, the
firewall hole, the microbenchmark rates) are ``test_paper_figures.py``'s.
"""

import pytest

from repro.core.techniques.registry import TECHNIQUE_NO_WAIT
from repro.experiments.common import (
    EndToEndParams,
    RuleInstallParams,
    run_path_migration,
    run_rule_install,
)

QUICK = EndToEndParams(flow_count=40, rate_pps=150.0, seed=11)


@pytest.fixture(scope="module")
def barrier_run():
    return run_path_migration("barrier", QUICK)


@pytest.fixture(scope="module")
def general_run():
    return run_path_migration("general", QUICK)


@pytest.fixture(scope="module")
def sequential_run():
    return run_path_migration("sequential", QUICK)


@pytest.fixture(scope="module")
def timeout_run():
    return run_path_migration("timeout", QUICK)


def test_barriers_drop_packets_during_consistent_update(barrier_run):
    assert barrier_run.dropped_packets > 0
    assert max(barrier_run.broken_times()) > 0.02
    assert barrier_run.activation is not None
    assert barrier_run.activation.negative_count > 0


def test_general_probing_eliminates_drops(general_run):
    assert general_run.dropped_packets == 0
    assert general_run.activation.never_negative
    assert all(entry.first_new_path is not None for entry in general_run.stats)


def test_sequential_probing_eliminates_drops(sequential_run):
    assert sequential_run.dropped_packets == 0
    assert sequential_run.activation.never_negative


def test_timeout_is_safe_but_slower_than_probing(timeout_run, general_run):
    assert timeout_run.dropped_packets == 0
    assert timeout_run.mean_update_time > general_run.mean_update_time


def test_probing_close_to_no_wait_lower_bound(general_run):
    no_wait = run_path_migration(TECHNIQUE_NO_WAIT, QUICK)
    assert no_wait.mean_update_time <= general_run.mean_update_time
    # General probing stays within a modest factor of the unsafe lower bound.
    assert general_run.mean_update_time <= no_wait.mean_update_time + 0.15


def test_all_flows_eventually_migrate(barrier_run, general_run):
    for result in (barrier_run, general_run):
        assert all(entry.first_new_path is not None for entry in result.stats)


def test_sequential_usable_rate_grows_with_batch_size():
    params = RuleInstallParams(rule_count=300, max_unconfirmed=50)
    small_batch = run_rule_install("sequential", params.scaled(rum_overrides={"probe_batch": 1}))
    large_batch = run_rule_install("sequential", params.scaled(rum_overrides={"probe_batch": 10}))
    assert large_batch.usable_rate > small_batch.usable_rate
    assert small_batch.rum_probe_rule_updates > large_batch.rum_probe_rule_updates


def test_barrier_layer_buffering_slows_but_stays_safe():
    base = run_path_migration("general", QUICK)
    layered = run_path_migration(
        "general",
        QUICK.scaled(with_barrier_layer=True, buffer_after_barrier=True, barrier_every=10),
    )
    assert layered.dropped_packets == 0
    assert layered.completion_time >= base.completion_time
