"""Unit tests for the aggregated PHY frame format."""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.errors import PhyError
from repro.phy.frame import FrameKind, PhyFrame, ReceptionResult
from repro.phy.rates import HYDRA_BASE_RATE, rate_for_mbps
from repro.phy.timing import (
    PREAMBLE_DURATION,
    control_airtime,
    frame_airtime,
    samples_for_bytes,
)

#: The four rates of the paper's experiments.
PAPER_RATES = [rate_for_mbps(mbps) for mbps in (0.65, 1.3, 1.95, 2.6)]


@dataclass
class StubSubframe:
    """Minimal object satisfying the PHY's subframe interface."""

    size_bytes: int


def test_data_frame_sizes_and_counts():
    frame = PhyFrame.data(
        broadcast_subframes=[StubSubframe(160), StubSubframe(160)],
        unicast_subframes=[StubSubframe(1464)],
        unicast_rate=rate_for_mbps(2.6),
        broadcast_rate=rate_for_mbps(0.65),
    )
    assert frame.kind is FrameKind.DATA
    assert frame.broadcast_bytes == 320
    assert frame.unicast_bytes == 1464
    assert frame.total_bytes == 1784
    assert frame.subframe_count == 3
    assert frame.has_unicast
    assert not frame.is_broadcast_only


def test_broadcast_only_frame():
    frame = PhyFrame.data([StubSubframe(160)], [], unicast_rate=rate_for_mbps(1.3))
    assert frame.is_broadcast_only
    assert not frame.has_unicast
    # The broadcast rate defaults to the unicast rate when unspecified.
    assert frame.broadcast_rate is rate_for_mbps(1.3)


def test_empty_data_frame_rejected():
    with pytest.raises(PhyError):
        PhyFrame.data([], [], unicast_rate=HYDRA_BASE_RATE)


def test_control_frame_kind_enforced():
    with pytest.raises(PhyError):
        PhyFrame.control_frame(FrameKind.DATA, StubSubframe(14), HYDRA_BASE_RATE)
    frame = PhyFrame.control_frame(FrameKind.ACK, StubSubframe(14), HYDRA_BASE_RATE)
    assert frame.kind.is_control
    assert frame.control_bytes == 14
    assert frame.total_bytes == 14


def test_airtime_splits_rates_between_portions():
    bcast_rate = rate_for_mbps(0.65)
    ucast_rate = rate_for_mbps(2.6)
    frame = PhyFrame.data([StubSubframe(160)], [StubSubframe(1464)], ucast_rate, bcast_rate)
    expected = PREAMBLE_DURATION + 160 * 8 / 0.65e6 + 1464 * 8 / 2.6e6
    assert frame.airtime() == pytest.approx(expected)


def test_control_airtime():
    frame = PhyFrame.control_frame(FrameKind.RTS, StubSubframe(20), HYDRA_BASE_RATE)
    assert frame.airtime() == control_airtime(20, HYDRA_BASE_RATE)


@pytest.mark.parametrize("rate", PAPER_RATES, ids=lambda rate: rate.name)
def test_memoised_airtime_equals_a_fresh_computation(rate):
    """A frame's airtime is worked out once, and it is the airtime the
    timing functions give for the frame's layout, first call and later."""
    mixed = PhyFrame.data([StubSubframe(160), StubSubframe(160)], [StubSubframe(1464)],
                          rate, HYDRA_BASE_RATE)
    unicast = PhyFrame.data([], [StubSubframe(1464), StubSubframe(900)], rate)
    broadcast = PhyFrame.data([StubSubframe(160)], [], rate)
    for frame, expected in (
            (mixed, frame_airtime(320, HYDRA_BASE_RATE, 1464, rate)),
            (unicast, frame_airtime(0, rate, 2364, rate)),
            (broadcast, frame_airtime(160, rate, 0, rate))):
        assert frame.airtime() == expected
        assert frame.airtime() == expected
    for kind, size in ((FrameKind.RTS, 20), (FrameKind.CTS, 14), (FrameKind.ACK, 14)):
        frame = PhyFrame.control_frame(kind, StubSubframe(size), rate)
        assert frame.control_bytes == size
        assert frame.airtime() == control_airtime(size, rate)
        assert frame.airtime() == control_airtime(size, rate)


def test_sample_offsets_broadcast_portion_comes_first():
    rate = rate_for_mbps(0.65)
    frame = PhyFrame.data([StubSubframe(100)], [StubSubframe(200)], rate, rate)
    bcast_offsets, ucast_offsets = frame.sample_offsets()
    assert len(bcast_offsets) == 1 and len(ucast_offsets) == 1
    # The unicast subframe ends after the broadcast subframe.
    assert ucast_offsets[0] > bcast_offsets[0]
    assert ucast_offsets[0] == pytest.approx(samples_for_bytes(300, rate))


# ---------------------------------------------------------------------------
# ReceptionResult
# ---------------------------------------------------------------------------

def _make_result(broadcast_ok, unicast_ok):
    frame = PhyFrame.data(
        [StubSubframe(160) for _ in broadcast_ok],
        [StubSubframe(1464) for _ in unicast_ok],
        unicast_rate=rate_for_mbps(1.3),
    )
    return ReceptionResult(frame=frame, snr_db=25.0, broadcast_ok=list(broadcast_ok),
                           unicast_ok=list(unicast_ok))


def test_all_unicast_ok_requires_every_crc():
    assert _make_result([], [True, True]).all_unicast_ok
    assert not _make_result([], [True, False]).all_unicast_ok
    # A broadcast-only frame has no unicast portion to acknowledge.
    assert not _make_result([True], []).all_unicast_ok


def test_delivered_broadcast_filters_failed_subframes():
    result = _make_result([True, False, True], [])
    assert len(result.delivered_broadcast) == 2


def test_delivered_unicast_is_all_or_nothing():
    """Section 4.2.2: if any unicast CRC fails, all unicast subframes are discarded."""
    good = _make_result([], [True, True, True])
    bad = _make_result([], [True, False, True])
    assert good.all_unicast_ok
    assert not bad.all_unicast_ok


def test_any_ok_reflects_partial_success():
    assert _make_result([True], [False]).any_ok
    assert not _make_result([False], [False]).any_ok
