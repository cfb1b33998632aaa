"""Unit tests for the aggregation policies."""

from __future__ import annotations

import pytest

from repro.core.policies import (
    broadcast_aggregation,
    delayed_broadcast_aggregation,
    no_aggregation,
    unicast_aggregation,
)
from repro.errors import ConfigurationError
from repro.units import kilobytes


# ---------------------------------------------------------------------------
# Policies (Section 3 / 6 variants)
# ---------------------------------------------------------------------------

def test_na_policy_allows_single_subframe_only():
    policy = no_aggregation()
    assert policy.max_unicast_subframes == 1
    assert policy.max_broadcast_subframes == 1
    assert not policy.mixes_broadcast_and_unicast
    assert not policy.classify_tcp_acks_as_broadcast
    assert policy.min_frames_before_transmit == 1


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
    assert policy.min_frames_before_transmit == 3
    assert policy.delayed_flush_timeout > 0


def test_forward_aggregation_disabled_limits_each_portion_to_one():
    policy = broadcast_aggregation().without_forward_aggregation()
    assert policy.max_unicast_subframes == 1
    assert policy.max_broadcast_subframes == 1
    assert policy.classify_tcp_acks_as_broadcast  # backward aggregation still active


def test_policy_variants_are_copies():
    base = broadcast_aggregation()
    unforwarded = base.without_forward_aggregation()
    assert not unforwarded.forward_aggregation
    assert base.forward_aggregation


def test_policy_validation():
    with pytest.raises(ConfigurationError):
        broadcast_aggregation(max_aggregate_bytes=100)
    with pytest.raises(ConfigurationError):
        delayed_broadcast_aggregation(min_frames=0)
