"""Unit tests for PHY airtime and sample accounting."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigurationError
from repro.experiments.paper_values import PAPER_VALUES
from repro.phy.error_model import COHERENCE_SAMPLES
from repro.phy.rates import HYDRA_BASE_RATE, HYDRA_SISO_RATES, rate_for_mbps
from repro.phy.timing import (
    PREAMBLE_DURATION,
    bytes_for_samples,
    control_airtime,
    frame_airtime,
    payload_airtime,
    samples_for_bytes,
    subframe_sample_offsets,
)
from repro.units import microseconds


def test_payload_airtime_matches_rate_arithmetic():
    rate = rate_for_mbps(0.65)
    assert payload_airtime(1464, rate) == pytest.approx(1464 * 8 / 0.65e6)
    assert payload_airtime(1464, rate) == rate.transmission_time(1464)


def test_frame_airtime_sums_portions_and_preamble():
    assert PREAMBLE_DURATION == microseconds(240)
    bcast = rate_for_mbps(0.65)
    ucast = rate_for_mbps(2.6)
    airtime = frame_airtime(160, bcast, 1464, ucast)
    expected = microseconds(240) + 160 * 8 / 0.65e6 + 1464 * 8 / 2.6e6
    assert airtime == pytest.approx(expected)


def test_empty_portions_do_not_add_airtime():
    rate = rate_for_mbps(1.3)
    assert frame_airtime(0, rate, 0, rate) == PREAMBLE_DURATION


def test_control_airtime_includes_preamble():
    assert control_airtime(14, HYDRA_BASE_RATE) == pytest.approx(
        PREAMBLE_DURATION + 14 * 8 / 0.65e6
    )


def test_paper_aggregation_thresholds_map_to_120ksamples():
    """5 KB @ 0.65, ~11 KB @ 1.3 and ~15 KB @ 1.95 all sit near 120 Ksamples (Section 6.1)."""
    figure7 = PAPER_VALUES["figure7"]
    assert COHERENCE_SAMPLES == figure7["threshold_samples"]
    for rate_mbps, size_kb in figure7["threshold_kb"].items():
        samples = samples_for_bytes(size_kb * 1024, rate_for_mbps(rate_mbps))
        assert samples == pytest.approx(COHERENCE_SAMPLES, rel=0.12)


def test_samples_bytes_roundtrip():
    rate = rate_for_mbps(1.95)
    samples = samples_for_bytes(5000, rate)
    assert bytes_for_samples(samples, rate) == pytest.approx(5000)


def test_subframe_sample_offsets_are_cumulative():
    rate = rate_for_mbps(0.65)
    offsets = subframe_sample_offsets([100, 200, 300], rate)
    per_byte = samples_for_bytes(1, rate)
    assert offsets == pytest.approx([100 * per_byte, 300 * per_byte, 600 * per_byte])


def test_subframe_sample_offsets_with_start_offset():
    rate = rate_for_mbps(0.65)
    offsets = subframe_sample_offsets([100], rate, start_offset_samples=500.0)
    assert offsets[0] == pytest.approx(500.0 + samples_for_bytes(100, rate))


def test_invalid_configuration_rejected():
    with pytest.raises(ConfigurationError):
        payload_airtime(-1, HYDRA_BASE_RATE)
    with pytest.raises(ConfigurationError):
        samples_for_bytes(-1, HYDRA_BASE_RATE)


@given(
    sizes=st.lists(st.integers(min_value=0, max_value=5000), min_size=1, max_size=20),
    rate_index=st.integers(min_value=0, max_value=7),
)
def test_offsets_are_monotone_nondecreasing(sizes, rate_index):
    rate = HYDRA_SISO_RATES[rate_index]
    offsets = subframe_sample_offsets(sizes, rate)
    assert all(b >= a for a, b in zip(offsets, offsets[1:]))
    assert offsets[-1] == pytest.approx(samples_for_bytes(sum(sizes), rate), rel=1e-9)
