"""Unit tests for NewReno congestion control and RTT/RTO estimation."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.transport.tcp.congestion import NewRenoCongestionControl
from repro.transport.tcp.rtt import MAX_RTO, MIN_RTO, RttEstimator

MSS = 1357


# ---------------------------------------------------------------------------
# Congestion control
# ---------------------------------------------------------------------------

def _window(segments: int, ssthresh: int = 1 << 20) -> NewRenoCongestionControl:
    """A controller whose window and threshold were set after construction."""
    cc = NewRenoCongestionControl(mss=MSS)
    cc.cwnd = segments * MSS
    cc.ssthresh = ssthresh
    return cc


def test_initial_window_and_slow_start_growth():
    cc = NewRenoCongestionControl(mss=MSS)
    assert cc.cwnd == 2 * MSS
    assert cc.in_slow_start
    cc.on_new_ack(MSS)
    assert cc.cwnd == 3 * MSS  # exponential growth: +1 MSS per ACKed MSS


def test_congestion_avoidance_linear_growth():
    cc = _window(4, ssthresh=4 * MSS)
    assert not cc.in_slow_start
    start = cc.cwnd
    # A full window of ACKs grows cwnd by roughly one MSS.
    acked = 0
    while acked < start:
        cc.on_new_ack(MSS)
        acked += MSS
    assert cc.cwnd >= start + MSS
    assert cc.cwnd < start + 3 * MSS


def test_fast_recovery_halves_window():
    cc = _window(20, ssthresh=100 * MSS)
    flight = 20 * MSS
    cc.on_enter_fast_recovery(flight)
    assert cc.in_fast_recovery
    assert cc.ssthresh == flight // 2
    assert cc.cwnd == cc.ssthresh + 3 * MSS
    cc.on_dup_ack_in_recovery()
    assert cc.cwnd == cc.ssthresh + 4 * MSS
    cc.on_exit_fast_recovery()
    assert not cc.in_fast_recovery
    assert cc.cwnd == cc.ssthresh


def test_partial_ack_deflates_window():
    cc = _window(20)
    cc.on_enter_fast_recovery(20 * MSS)
    before = cc.cwnd
    cc.on_partial_ack(2 * MSS)
    assert cc.cwnd <= before
    assert cc.cwnd >= cc.ssthresh


def test_timeout_collapses_to_one_segment():
    cc = _window(20)
    cc.on_timeout(20 * MSS)
    assert cc.cwnd == MSS
    assert cc.ssthresh == 10 * MSS
    assert cc.timeouts == 1
    assert not cc.in_fast_recovery


def test_ssthresh_floor_is_two_segments():
    cc = NewRenoCongestionControl(mss=MSS)
    cc.on_timeout(MSS)
    assert cc.ssthresh == 2 * MSS


def test_window_bounded_by_receiver():
    cc = _window(50)
    assert cc.window(receiver_window=10 * MSS) == 10 * MSS


def test_invalid_mss_rejected():
    with pytest.raises(ConfigurationError):
        NewRenoCongestionControl(mss=0)


# ---------------------------------------------------------------------------
# RTT / RTO
# ---------------------------------------------------------------------------

def test_first_measurement_initialises_srtt():
    rtt = RttEstimator()
    rtt.on_measurement(0.1)
    assert rtt.srtt == pytest.approx(0.1)
    assert rtt.rttvar == pytest.approx(0.05)
    assert rtt.rto == pytest.approx(max(0.2, 0.1 + 4 * 0.05))


def test_smoothing_converges_towards_constant_rtt():
    rtt = RttEstimator()
    for _ in range(50):
        rtt.on_measurement(0.08)
    assert rtt.srtt == pytest.approx(0.08, rel=0.05)
    assert rtt.rto >= MIN_RTO


def test_rto_never_below_minimum():
    assert MIN_RTO == 0.2
    rtt = RttEstimator()
    for _ in range(20):
        rtt.on_measurement(0.001)
    assert rtt.rto == pytest.approx(0.2)


def test_timeout_backoff_doubles_and_resets():
    rtt = RttEstimator()
    rtt.on_measurement(0.5)
    base = rtt.rto
    rtt.on_timeout()
    assert rtt.rto == pytest.approx(min(2 * base, MAX_RTO))
    rtt.on_timeout()
    assert rtt.rto >= 2 * base or rtt.rto == MAX_RTO
    rtt.reset_backoff()
    assert rtt.rto == pytest.approx(base)


def test_negative_samples_ignored():
    rtt = RttEstimator()
    rtt.on_measurement(-1.0)
    assert rtt.samples == 0

