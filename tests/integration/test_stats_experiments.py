"""Tests for result containers, statistics collection and the experiment runners."""

from __future__ import annotations

import pytest

from repro.core import broadcast_aggregation, delayed_broadcast_aggregation, unicast_aggregation
from repro.experiments import run_star_tcp, run_tcp_transfer, run_udp_saturation
from repro.experiments.paper_values import PAPER_VALUES
from repro.stats.collect import node_frame_sizes, transmission_percentages
from repro.stats.results import ExperimentResult, Series, TableResult

SMALL_FILE = 50_000


# ---------------------------------------------------------------------------
# Result containers
# ---------------------------------------------------------------------------

def test_series_add_and_lookup():
    series = Series(label="BA")
    series.add(0.65, 0.25)
    series.add(1.3, 0.45)
    assert series.value_at(1.3) == 0.45
    assert series.peak == 0.45
    with pytest.raises(KeyError):
        series.value_at(2.6)


def test_table_result_cells_and_text():
    table = TableResult(title="variant", columns=["a", "b"])
    table.add_row("NA", [1.0, 2.0])
    assert table.cell("NA", "b") == 2.0
    text = table.to_text()
    assert "variant" in text and "NA" in text


def test_experiment_result_rendering():
    result = ExperimentResult("figX", "demo")
    series = result.add_series(Series(label="BA"))
    series.add(1.0, 2.0)
    result.add_metric("gap", 0.1)
    result.note("a note")
    text = result.to_text()
    assert "figX" in text and "BA" in text and "gap" in text and "a note" in text
    assert result.get_series("BA") is series


def test_transmission_percentages_relative_to_baseline():
    percentages = transmission_percentages({"NA": 200, "UA": 70, "BA": 50})
    assert percentages["NA"] == 100.0
    assert percentages["UA"] == pytest.approx(35.0)
    assert transmission_percentages({"UA": 10}) == {"UA": 0.0}


def test_paper_values_registry_contains_every_table_and_figure():
    for key in ("table2", "figure7", "figure8", "figure9", "figure10", "figure11",
                "figure12", "figure13", "figure14", "table3", "table4", "table5",
                "table6", "table7", "table8", "setup"):
        assert key in PAPER_VALUES


# ---------------------------------------------------------------------------
# Scenario runners
# ---------------------------------------------------------------------------

def test_run_tcp_transfer_returns_complete_result():
    outcome = run_tcp_transfer(broadcast_aggregation(), hops=2, rate_mbps=1.3,
                               file_bytes=SMALL_FILE, seed=3)
    assert outcome.complete
    assert outcome.throughput_mbps > 0.1
    assert outcome.completion_time is not None
    assert len(outcome.network) == 3


def test_run_tcp_transfer_with_delayed_relay_policy():
    outcome = run_tcp_transfer(broadcast_aggregation(), hops=2, rate_mbps=1.3,
                               file_bytes=SMALL_FILE, seed=3,
                               relay_policy=delayed_broadcast_aggregation())
    assert outcome.complete
    assert outcome.network.node(2).policy.min_frames_before_transmit > 1
    assert outcome.network.node(1).policy.min_frames_before_transmit == 1


def test_run_udp_saturation_measures_throughput():
    outcome = run_udp_saturation(unicast_aggregation(), hops=2, rate_mbps=0.65,
                                 duration=6.0, seed=3)
    assert 0.1 < outcome.throughput_mbps < 0.65
    assert outcome.packets_received > 50


def test_scenario_runs_conserve_every_followed_packet():
    # The journey audit must balance on the raw scenario runners too: TCP
    # retransmissions (fresh packets per attempt) and saturated UDP queues
    # (queue-full drops) are the classic places packets leak silently.
    from repro.obs import observe

    with observe(journey=True) as session:
        run_tcp_transfer(unicast_aggregation(), file_bytes=20_000, seed=2)
        run_udp_saturation(broadcast_aggregation(), duration=2.0,
                           flooding_interval=0.5, seed=2)
    assert session.journey_count() > 0
    report = session.conservation_report()
    assert report["balanced"], report


def test_run_udp_saturation_with_flooding_attaches_flooders():
    outcome = run_udp_saturation(broadcast_aggregation(), hops=2, rate_mbps=0.65,
                                 duration=5.0, flooding_interval=0.5, seed=3)
    assert len(outcome.flooders) == 3
    assert all(f.packets_sent > 0 for f in outcome.flooders)
    assert outcome.throughput_mbps > 0.1


def test_run_star_tcp_reports_worst_case_session():
    outcome = run_star_tcp(broadcast_aggregation(), rate_mbps=1.3, file_bytes=SMALL_FILE, seed=3)
    assert len(outcome.session_throughputs_mbps) == 2
    assert outcome.worst_case_throughput_mbps == min(outcome.session_throughputs_mbps)
    assert outcome.worst_case_throughput_mbps > 0.05


# ---------------------------------------------------------------------------
# Statistics collection
# ---------------------------------------------------------------------------

def test_relay_detail_reports_paper_metrics():
    outcome = run_tcp_transfer(unicast_aggregation(), hops=2, rate_mbps=1.3,
                               file_bytes=SMALL_FILE, seed=3)
    relay = outcome.network.node(2).mac_stats
    assert relay.data_transmissions > 0
    assert relay.average_frame_size > 1000
    assert 0.0 < relay.size_overhead_fraction < 0.5
    assert 0.0 < relay.time_overhead_fraction < 0.8
    assert relay.average_subframes_per_frame >= 1.0


def test_node_frame_sizes_server_bigger_than_client():
    outcome = run_tcp_transfer(unicast_aggregation(), hops=2, rate_mbps=1.3,
                               file_bytes=SMALL_FILE, seed=3)
    sizes = node_frame_sizes(outcome.network)
    # The server sends large data aggregates; the client sends small ACK frames.
    assert sizes[1] > sizes[3]
    assert sizes[2] > sizes[3]


def test_aggregation_reduces_relay_transmissions_and_overhead():
    from repro.core import no_aggregation
    na = run_tcp_transfer(no_aggregation(), hops=2, rate_mbps=1.3,
                          file_bytes=SMALL_FILE, seed=3)
    ba = run_tcp_transfer(broadcast_aggregation(), hops=2, rate_mbps=1.3,
                          file_bytes=SMALL_FILE, seed=3)
    na_relay = na.network.node(2).mac_stats
    ba_relay = ba.network.node(2).mac_stats
    assert ba_relay.data_transmissions < 0.6 * na_relay.data_transmissions
    assert ba_relay.average_frame_size > 2 * na_relay.average_frame_size
    assert ba_relay.size_overhead_fraction < na_relay.size_overhead_fraction
    assert ba_relay.time_overhead_fraction < na_relay.time_overhead_fraction
