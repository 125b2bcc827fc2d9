"""Unit tests for the analysis/measurement utilities."""

import pytest

from repro.analysis import (
    Distribution,
    cdf_points,
    format_table,
    percentile,
)
from repro.analysis.activation import ActivationDelays
from repro.analysis.cdf import fraction_at_least
from repro.analysis.flowstats import (
    FlowUpdateStats,
    broken_time_distribution,
    flow_update_stats,
    mean_update_time,
    total_dropped,
    update_completion_time,
)
from repro.analysis.report import render_flow_update_curves
from repro.net.monitor import DeliveryMonitor


# -- cdf / distribution ---------------------------------------------------------

def test_percentile_interpolates():
    values = [0.0, 1.0, 2.0, 3.0, 4.0]
    assert percentile(values, 0.0) == 0.0
    assert percentile(values, 1.0) == 4.0
    assert percentile(values, 0.5) == 2.0
    assert percentile(values, 0.25) == 1.0


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile([1.0], 1.5)


def test_cdf_points_monotone():
    points = cdf_points([3.0, 1.0, 2.0])
    assert points == [(1.0, pytest.approx(1 / 3)), (2.0, pytest.approx(2 / 3)), (3.0, 1.0)]
    assert cdf_points([]) == []


def test_fraction_at_least():
    values = [0.1, 0.2, 0.3, 0.4]
    assert fraction_at_least(values, 0.25) == 0.5
    assert fraction_at_least([], 1.0) == 0.0


def test_distribution_summary():
    summary = Distribution.from_values([1.0, 2.0, 3.0, 4.0])
    assert summary.count == 4
    assert summary.mean == 2.5
    assert summary.minimum == 1.0 and summary.maximum == 4.0
    assert set(summary.as_dict()) == {"count", "min", "max", "mean", "median", "p10", "p90", "p99"}
    with pytest.raises(ValueError):
        Distribution.from_values([])


# -- report rendering ---------------------------------------------------------------

def test_format_table_alignment_and_validation():
    text = format_table(["a", "bb"], [[1, 2.5], ["xx", "y"]], title="T")
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "a" in lines[1] and "bb" in lines[1]
    with pytest.raises(ValueError):
        format_table(["a"], [[1, 2]])


def test_render_flow_update_curves_handles_missing_values():
    text = render_flow_update_curves({
        "ok": [(0.1, 0.2), (0.2, 0.3)],
        "never-switched": [(0.1, None)],
    })
    assert "ok" in text and "never-switched" in text


# -- flow stats ------------------------------------------------------------------------

def _monitor_with_switchover():
    monitor = DeliveryMonitor()
    # Flow f0: old path arrivals until t=1.0, new path from t=1.3 (gap 0.3).
    for index in range(11):
        time = index * 0.1
        monitor.record_sent("f0")
        monitor.record_delivery("f0", time, time, index, ("H1", "S1", "S3", "H2"))
    for index in range(11, 14):
        time = 0.2 + index * 0.1
        monitor.record_sent("f0")
        monitor.record_delivery("f0", time, time, index, ("H1", "S1", "S2", "S3", "H2"))
    return monitor


def test_flow_update_stats_switchover_times():
    monitor = _monitor_with_switchover()
    stats = flow_update_stats(monitor, new_path_switch="S2", update_start=0.5,
                              expected_interval=0.1)
    assert len(stats) == 1
    entry = stats[0]
    assert entry.last_old_path == pytest.approx(0.5)
    assert entry.first_new_path == pytest.approx(0.8)
    assert entry.broken_time == pytest.approx(0.2, abs=1e-9)
    assert entry.switched
    assert entry.packets_dropped == 0


def test_broken_time_distribution_percentages():
    stats = [
        FlowUpdateStats("a", 0.0, 0.1, broken_time=0.25, packets_sent=10, packets_received=9),
        FlowUpdateStats("b", 0.0, 0.1, broken_time=0.05, packets_sent=10, packets_received=10),
        FlowUpdateStats("c", 0.0, 0.1, broken_time=0.0, packets_sent=10, packets_received=10),
        FlowUpdateStats("d", 0.0, 0.1, broken_time=0.31, packets_sent=10, packets_received=5),
    ]
    distribution = broken_time_distribution(stats, thresholds=(0.0, 0.1, 0.3))
    assert distribution[0.0] == 100.0
    assert distribution[0.1] == 50.0
    assert distribution[0.3] == 25.0
    assert total_dropped(stats) == 6
    assert mean_update_time(stats) == pytest.approx(0.1)
    assert update_completion_time(stats) == pytest.approx(0.1)


def test_mean_update_time_empty_and_unswitched():
    assert mean_update_time([]) is None
    stats = [FlowUpdateStats("a", 0.0, None, 0.0, 1, 1)]
    assert mean_update_time(stats) is None
    assert update_completion_time(stats) is None


# -- activation delays ------------------------------------------------------------------------

def test_activation_delays_properties():
    delays = ActivationDelays(
        technique="x",
        per_rule={1: (1.0, 0.9, -0.1), 2: (1.0, 1.2, 0.2), 3: (2.0, 2.5, 0.5)},
    )
    assert delays.negative_count == 1
    assert not delays.never_negative
    assert sorted(delays.delays) == [-0.1, 0.2, 0.5]
    ranked = delays.ranked()
    assert ranked[0] == (1, -0.1) and ranked[-1] == (3, 0.5)
    summary = delays.summary()
    assert summary.count == 3


# -- report renderers: golden strings -------------------------------------------

def test_render_run_summaries_golden():
    from repro.analysis.report import render_run_summaries

    summaries = [
        {"scenario": "path-migration", "technique": "barrier",
         "topology": "triangle", "seed": 1, "update_duration": 1.5,
         "dropped_packets": 3, "max_broken_time": 0.25,
         "digest": "abcdef0123456789"},
        # A record without a scenario label falls back to its kind; missing
        # duration and digest render as "-".
        {"kind": "scenario", "technique": "general", "topology": "leaf-spine",
         "seed": 2, "update_duration": None, "dropped_packets": 0,
         "max_broken_time": 0.0, "digest": ""},
    ]
    expected = (
        "Runs\n"
        "workload       | technique | topology   | seed | duration [s] | dropped | max broken [s] | digest  \n"
        "---------------+-----------+------------+------+--------------+---------+----------------+---------\n"
        "path-migration | barrier   | triangle   | 1    | 1.500        | 3       | 0.250          | abcdef01\n"
        "scenario       | general   | leaf-spine | 2    | -            | 0       | 0.000          | -       "
    )
    assert render_run_summaries(summaries, title="Runs") == expected


def test_resilience_table_golden():
    from repro.analysis.report import (
        RESILIENCE_HEADERS,
        correctness_under_fault_rows,
        format_table,
    )

    groups = {
        ("none", "barrier"): [
            {"update_duration": 1.0, "completed": True, "dropped_packets": 0,
             "max_broken_time": 0.0, "metrics": {}, "faults": {}},
            {"update_duration": 2.0, "completed": True, "dropped_packets": 2,
             "max_broken_time": 0.5, "metrics": {}, "faults": {}},
        ],
        ("ack-loss(probability=0.3)", "timeout"): [
            {"update_duration": None, "completed": False,
             "dropped_packets": 7, "max_broken_time": 1.25,
             "metrics": {"http_bypassing_firewall": 2},
             "faults": {"ack-loss.drops": 3}},
        ],
        ("switch-crash(at=0.5)", "general"): [
            {"update_duration": 1.0, "completed": True, "dropped_packets": 9,
             "max_broken_time": 0.75, "metrics": {},
             "faults": {"switch-crash.crashes": 1},
             "recovery": {"reconverged": True, "rules_reinstalled": 4}},
            {"update_duration": 1.0, "completed": True, "dropped_packets": 30,
             "max_broken_time": 1.5, "metrics": {},
             "faults": {"switch-crash.crashes": 1},
             "recovery": {"reconverged": False, "rules_reinstalled": 2}},
        ],
    }
    expected = (
        "Resilience\n"
        "fault                     | technique | runs | completed | mean duration [s] | dropped | violations | max broken [s] | fault events | recovered | reinstalled\n"
        "--------------------------+-----------+------+-----------+-------------------+---------+------------+----------------+--------------+-----------+------------\n"
        "ack-loss(probability=0.3) | timeout   | 1    | 0/1       | -                 | 7       | 2          | 1.250          | 3            | -         | -          \n"
        "none                      | barrier   | 2    | 2/2       | 1.500             | 2       | 0          | 0.500          | 0            | -         | -          \n"
        "switch-crash(at=0.5)      | general   | 2    | 2/2       | 1.000             | 39      | 0          | 1.500          | 2            | 1/2       | 6          "
    )
    table = format_table(RESILIENCE_HEADERS,
                         correctness_under_fault_rows(groups),
                         title="Resilience")
    assert table == expected
