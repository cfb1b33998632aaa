"""Unit tests for the TCP ACK classifier and the aggregation policies."""

from __future__ import annotations

import pytest

from repro.core.classifier import TcpAckClassifier
from repro.core.policies import (
    broadcast_aggregation,
    delayed_broadcast_aggregation,
    no_aggregation,
    unicast_aggregation,
)
from repro.errors import ConfigurationError
from repro.net.address import IpAddress
from repro.net.packet import Packet, TcpHeader
from repro.units import kilobytes

SRC, DST = IpAddress("10.0.0.1"), IpAddress("10.0.0.3")


def tcp(payload=0, ack=True, syn=False, fin=False, rst=False):
    header = TcpHeader(src_port=1, dst_port=2, flags_ack=ack, flags_syn=syn,
                       flags_fin=fin, flags_rst=rst)
    return Packet.tcp_segment(SRC, DST, header, payload_bytes=payload)


# ---------------------------------------------------------------------------
# Classifier (Section 4.2.4)
# ---------------------------------------------------------------------------

def test_pure_ack_is_classified():
    classifier = TcpAckClassifier(enabled=True)
    assert classifier.is_pure_tcp_ack(tcp(payload=0, ack=True))
    assert classifier.belongs_in_broadcast_queue(tcp(), link_broadcast=False)
    assert classifier.classified_ack_count == 1


def test_data_segments_are_not_classified():
    classifier = TcpAckClassifier(enabled=True)
    assert not classifier.is_pure_tcp_ack(tcp(payload=1357))
    assert not classifier.belongs_in_broadcast_queue(tcp(payload=1357), link_broadcast=False)


def test_connection_setup_segments_are_not_pure_acks():
    classifier = TcpAckClassifier(enabled=True)
    assert not classifier.is_pure_tcp_ack(tcp(syn=True))
    assert not classifier.is_pure_tcp_ack(tcp(syn=True, ack=True))
    assert not classifier.is_pure_tcp_ack(tcp(fin=True))
    assert not classifier.is_pure_tcp_ack(tcp(rst=True))


def test_udp_is_never_classified():
    classifier = TcpAckClassifier(enabled=True)
    udp = Packet.udp_datagram(SRC, DST, 9000, 9000, payload_bytes=100)
    assert not classifier.is_pure_tcp_ack(udp)
    assert not classifier.belongs_in_broadcast_queue(udp, link_broadcast=False)


def test_link_broadcasts_always_use_broadcast_queue():
    classifier = TcpAckClassifier(enabled=False)
    flood = Packet.broadcast_control(SRC, payload_bytes=64)
    assert classifier.belongs_in_broadcast_queue(flood, link_broadcast=True)


def test_disabled_classifier_keeps_acks_unicast():
    classifier = TcpAckClassifier(enabled=False)
    assert not classifier.belongs_in_broadcast_queue(tcp(), link_broadcast=False)
    assert classifier.classified_ack_count == 0


# ---------------------------------------------------------------------------
# Policies (Section 3 / 6 variants)
# ---------------------------------------------------------------------------

def test_na_policy_allows_single_subframe_only():
    policy = no_aggregation()
    assert policy.max_unicast_subframes == 1
    assert policy.max_broadcast_subframes == 1
    assert not policy.mixes_broadcast_and_unicast
    assert not policy.classify_tcp_acks_as_broadcast
    assert not policy.is_delayed


def test_ua_policy_aggregates_unicast_only():
    policy = unicast_aggregation()
    assert policy.max_unicast_subframes > 1
    assert not policy.mixes_broadcast_and_unicast
    assert not policy.classify_tcp_acks_as_broadcast


def test_ba_policy_aggregates_everything_and_classifies():
    policy = broadcast_aggregation()
    assert policy.aggregate_broadcast and policy.aggregate_unicast
    assert policy.classify_tcp_acks_as_broadcast
    assert policy.mixes_broadcast_and_unicast
    assert policy.max_aggregate_bytes == kilobytes(5)


def test_dba_policy_requires_minimum_queue_occupancy():
    policy = delayed_broadcast_aggregation(min_frames=3)
    assert policy.is_delayed
    assert policy.min_frames_before_transmit == 3
    assert policy.delayed_flush_timeout > 0


def test_forward_aggregation_disabled_limits_each_portion_to_one():
    policy = broadcast_aggregation().without_forward_aggregation()
    assert policy.max_unicast_subframes == 1
    assert policy.max_broadcast_subframes == 1
    assert policy.classify_tcp_acks_as_broadcast  # backward aggregation still active


def test_policy_variants_are_copies():
    base = broadcast_aggregation()
    resized = base.with_max_aggregate_bytes(kilobytes(11))
    assert base.max_aggregate_bytes == kilobytes(5)
    assert resized.max_aggregate_bytes == kilobytes(11)
    unforwarded = base.without_forward_aggregation()
    assert not unforwarded.forward_aggregation
    assert base.forward_aggregation


def test_policy_validation():
    with pytest.raises(ConfigurationError):
        broadcast_aggregation(max_aggregate_bytes=100)
    with pytest.raises(ConfigurationError):
        delayed_broadcast_aggregation(min_frames=0)
