"""Unit tests for unit helpers, the error hierarchy and MAC statistics."""

from __future__ import annotations

import pytest

from repro import errors, units
from repro.mac.addresses import BROADCAST_MAC, MacAddress
from repro.mac.frames import subframe_for_packet
from repro.mac.stats import MacStatistics
from repro.net.address import IpAddress
from repro.net.packet import Packet, TcpHeader
from repro.phy.frame import PhyFrame
from repro.phy.rates import rate_for_mbps


# ---------------------------------------------------------------------------
# units
# ---------------------------------------------------------------------------

def test_time_conversions():
    assert units.milliseconds(3) == pytest.approx(0.003)
    assert units.microseconds(60) == pytest.approx(6e-5)


def test_size_conversions():
    assert units.kilobytes(5) == 5120
    assert units.megabytes(0.2) == 209715


def test_rate_conversions_and_transmission_time():
    assert units.mbps(1.3) == pytest.approx(1.3e6)
    # Serialisation time is the rate's own: one definition, on PhyRate.
    assert rate_for_mbps(0.65).transmission_time(1464) == pytest.approx(1464 * 8 / 0.65e6)


def test_throughput_helper():
    assert units.throughput_mbps(125_000, 1.0) == pytest.approx(1.0)
    assert units.throughput_mbps(1000, 0.0) == 0.0


# ---------------------------------------------------------------------------
# error hierarchy
# ---------------------------------------------------------------------------

def test_all_errors_derive_from_repro_error():
    for name in ("ConfigurationError", "SimulationError", "SchedulingError", "PhyError",
                 "MacError", "AggregationError", "RoutingError", "TransportError",
                 "TcpStateError", "AddressError", "ExperimentError"):
        cls = getattr(errors, name)
        assert issubclass(cls, errors.ReproError)
    assert issubclass(errors.SchedulingError, errors.SimulationError)
    assert issubclass(errors.TcpStateError, errors.TransportError)


# ---------------------------------------------------------------------------
# MacStatistics
# ---------------------------------------------------------------------------

def _frame(n_data=2, n_acks=1, rate=rate_for_mbps(1.3)):
    src, dst = MacAddress.node(1), MacAddress.node(2)
    data_header = TcpHeader(src_port=1, dst_port=2, flags_ack=True)
    data = [subframe_for_packet(
        Packet.tcp_segment(IpAddress("10.0.0.1"), IpAddress("10.0.0.3"), data_header,
                           payload_bytes=1357), src, dst) for _ in range(n_data)]
    acks = [subframe_for_packet(
        Packet.tcp_segment(IpAddress("10.0.0.3"), IpAddress("10.0.0.1"), data_header),
        src, MacAddress.node(3), broadcast_portion=True) for _ in range(n_acks)]
    return PhyFrame.data(acks, data, unicast_rate=rate)


def test_record_data_frame_accumulates_sizes_and_counts():
    stats = MacStatistics()
    stats.record_data_frame(_frame(n_data=2, n_acks=1))
    assert stats.data_transmissions == 1
    assert stats.unicast_subframes_sent == 2
    assert stats.broadcast_subframes_sent == 1
    assert stats.classified_ack_subframes_sent == 1
    assert stats.average_frame_size == pytest.approx(2 * 1464 + 160)
    assert stats.average_subframes_per_frame == pytest.approx(3.0)
    assert stats.payload_airtime > 0
    assert stats.header_airtime > 0


def test_overhead_fractions_between_zero_and_one():
    stats = MacStatistics()
    assert stats.size_overhead_fraction == 0.0
    assert stats.time_overhead_fraction == 0.0
    stats.record_data_frame(_frame())
    stats.record_control_frame("rts", 0.0005)
    stats.record_control_frame("cts", 0.0005)
    stats.record_control_frame("ack", 0.0005)
    stats.record_ifs(0.0002)
    stats.record_contention(0.0005)
    assert 0.0 < stats.size_overhead_fraction < 1.0
    assert 0.0 < stats.time_overhead_fraction < 1.0
    assert stats.rts_sent == 1 and stats.cts_sent == 1 and stats.acks_sent == 1


def test_broadcast_only_frame_counted():
    stats = MacStatistics()
    frame = _frame(n_data=0, n_acks=2)
    stats.record_data_frame(frame)
    assert stats.broadcast_only_transmissions == 1
    assert (stats.unicast_subframes_sent, stats.broadcast_subframes_sent) == (0, 2)


def test_summary_is_flat_and_rounded():
    stats = MacStatistics()
    stats.record_data_frame(_frame())
    summary = stats.summary()
    assert set(summary) >= {"data_transmissions", "average_frame_size", "size_overhead",
                            "time_overhead", "retransmissions"}
    assert isinstance(summary["average_frame_size"], float)


def test_more_aggregation_means_lower_size_overhead():
    small = MacStatistics()
    small.record_data_frame(_frame(n_data=1, n_acks=0))
    large = MacStatistics()
    large.record_data_frame(_frame(n_data=3, n_acks=0))
    assert large.size_overhead_fraction < small.size_overhead_fraction
