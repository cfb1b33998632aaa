"""Unit tests for the Hydra rate table."""

from __future__ import annotations

import pickle

import pytest

from repro.errors import ConfigurationError
from repro.phy.rates import HYDRA_BASE_RATE, HYDRA_SISO_RATES, rate_for_mbps


def test_hydra_siso_rates_match_table1_of_paper():
    expected = [0.65, 1.30, 1.95, 2.60, 3.90, 5.20, 5.85, 6.50]
    assert [round(r.data_rate_mbps, 2) for r in HYDRA_SISO_RATES] == expected


def test_base_rate_is_bpsk_half():
    assert HYDRA_BASE_RATE.data_rate_mbps == pytest.approx(0.65)
    assert HYDRA_BASE_RATE.modulation.label == "BPSK"
    assert str(HYDRA_BASE_RATE.coding) == "1/2"


def test_transmission_time():
    rate = rate_for_mbps(1.3)
    assert rate.transmission_time(1300) == pytest.approx(1300 * 8 / 1.3e6)
    assert rate.bits_in_time(1.0) == pytest.approx(1.3e6)


def test_rate_table_lookup_by_name_and_mbps():
    # A rate is looked up by name when a pickled rate loads.
    mcs2 = pickle.loads(pickle.dumps(HYDRA_SISO_RATES[2]))
    assert mcs2.name == "MCS2" and mcs2 is rate_for_mbps(1.95)
    assert mcs2.data_rate_mbps == pytest.approx(1.95)
    assert rate_for_mbps(2.6).name == "MCS3"
    # A nominal rate matches within 0.01 Mbps, and nothing else does.
    assert rate_for_mbps(2.605) is rate_for_mbps(2.6)
    with pytest.raises(ConfigurationError):
        rate_for_mbps(2.62)
    with pytest.raises(ConfigurationError):
        rate_for_mbps(7.0)


def test_rate_table_ordering_and_neighbours():
    # Neighbours in the table are neighbours in speed, the base rate first.
    assert [rate.name for rate in HYDRA_SISO_RATES] == [f"MCS{i}" for i in range(8)]
    speeds = [rate.data_rate_bps for rate in HYDRA_SISO_RATES]
    assert speeds == sorted(speeds)
    assert HYDRA_SISO_RATES[0] is HYDRA_BASE_RATE
    assert HYDRA_SISO_RATES[-1].name == "MCS7"
