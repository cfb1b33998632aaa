"""Unit tests for PHY airtime and sample accounting."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigurationError
from repro.phy.rates import HYDRA_RATE_TABLE
from repro.phy.timing import PhyTimingConfig
from repro.units import microseconds

RATES = HYDRA_RATE_TABLE


def test_payload_airtime_matches_rate_arithmetic():
    timing = PhyTimingConfig()
    rate = RATES.by_mbps(0.65)
    assert timing.payload_airtime(1464, rate) == pytest.approx(1464 * 8 / 0.65e6)


def test_frame_airtime_sums_portions_and_preamble():
    timing = PhyTimingConfig(preamble_duration=microseconds(240))
    bcast = RATES.by_mbps(0.65)
    ucast = RATES.by_mbps(2.6)
    airtime = timing.frame_airtime(160, bcast, 1464, ucast)
    expected = microseconds(240) + 160 * 8 / 0.65e6 + 1464 * 8 / 2.6e6
    assert airtime == pytest.approx(expected)


def test_empty_portions_do_not_add_airtime():
    timing = PhyTimingConfig()
    rate = RATES.by_mbps(1.3)
    only_preamble = timing.frame_airtime(0, rate, 0, rate)
    assert only_preamble == pytest.approx(timing.preamble_duration)


def test_control_airtime_includes_preamble():
    timing = PhyTimingConfig()
    rate = RATES.base_rate
    assert timing.control_airtime(14, rate) == pytest.approx(
        timing.preamble_duration + 14 * 8 / 0.65e6
    )


def test_paper_aggregation_thresholds_map_to_120ksamples():
    """5 KB @ 0.65, ~11 KB @ 1.3 and ~15 KB @ 1.95 all sit near 120 Ksamples (Section 6.1)."""
    timing = PhyTimingConfig()
    for rate_mbps, size_kb in [(0.65, 5), (1.3, 11), (1.95, 15)]:
        samples = timing.samples_for_bytes(size_kb * 1024, RATES.by_mbps(rate_mbps))
        assert samples == pytest.approx(120_000, rel=0.12)


def test_samples_bytes_roundtrip():
    timing = PhyTimingConfig()
    rate = RATES.by_mbps(1.95)
    samples = timing.samples_for_bytes(5000, rate)
    assert timing.bytes_for_samples(samples, rate) == pytest.approx(5000)


def test_subframe_sample_offsets_are_cumulative():
    timing = PhyTimingConfig()
    rate = RATES.by_mbps(0.65)
    offsets = timing.subframe_sample_offsets([100, 200, 300], rate)
    per_byte = timing.samples_for_bytes(1, rate)
    assert offsets == pytest.approx([100 * per_byte, 300 * per_byte, 600 * per_byte])


def test_subframe_sample_offsets_with_start_offset():
    timing = PhyTimingConfig()
    rate = RATES.by_mbps(0.65)
    offsets = timing.subframe_sample_offsets([100], rate, start_offset_samples=500.0)
    assert offsets[0] == pytest.approx(500.0 + timing.samples_for_bytes(100, rate))


def test_invalid_configuration_rejected():
    with pytest.raises(ConfigurationError):
        PhyTimingConfig(preamble_duration=-1.0)
    with pytest.raises(ConfigurationError):
        PhyTimingConfig(sample_rate=0.0)
    with pytest.raises(ConfigurationError):
        PhyTimingConfig(turnaround_time=-0.1)
    timing = PhyTimingConfig()
    with pytest.raises(ConfigurationError):
        timing.payload_airtime(-1, RATES.base_rate)


@given(
    sizes=st.lists(st.integers(min_value=0, max_value=5000), min_size=1, max_size=20),
    rate_index=st.integers(min_value=0, max_value=7),
)
def test_offsets_are_monotone_nondecreasing(sizes, rate_index):
    timing = PhyTimingConfig()
    rate = list(RATES)[rate_index]
    offsets = timing.subframe_sample_offsets(sizes, rate)
    assert all(b >= a for a, b in zip(offsets, offsets[1:]))
    assert offsets[-1] == pytest.approx(timing.samples_for_bytes(sum(sizes), rate), rel=1e-9)
