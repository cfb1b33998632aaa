"""Unit tests for the Hydra rate table."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.phy.rates import HYDRA_BASE_RATE, HYDRA_RATE_TABLE, HYDRA_SISO_RATES, RateTable


def test_hydra_siso_rates_match_table1_of_paper():
    expected = [0.65, 1.30, 1.95, 2.60, 3.90, 5.20, 5.85, 6.50]
    assert [round(r.data_rate_mbps, 2) for r in HYDRA_SISO_RATES] == expected


def test_base_rate_is_bpsk_half():
    assert HYDRA_BASE_RATE.data_rate_mbps == pytest.approx(0.65)
    assert HYDRA_BASE_RATE.modulation.label == "BPSK"
    assert str(HYDRA_BASE_RATE.coding) == "1/2"


def test_transmission_time():
    rate = HYDRA_RATE_TABLE.by_mbps(1.3)
    assert rate.transmission_time(1300) == pytest.approx(1300 * 8 / 1.3e6)
    assert rate.bits_in_time(1.0) == pytest.approx(1.3e6)


def test_rate_table_lookup_by_name_and_mbps():
    table = HYDRA_RATE_TABLE
    assert table.by_name("MCS2").data_rate_mbps == pytest.approx(1.95)
    assert table.by_mbps(2.6).name == "MCS3"
    with pytest.raises(ConfigurationError):
        table.by_name("MCS9")
    with pytest.raises(ConfigurationError):
        table.by_mbps(7.0)


def test_rate_table_ordering_and_neighbours():
    table = RateTable(reversed(HYDRA_SISO_RATES))
    assert table.base_rate.name == "MCS0"
    assert table.max_rate.name == "MCS7"
    # Neighbours in the table are neighbours in speed, whatever the input order.
    assert [rate.name for rate in table] == [f"MCS{i}" for i in range(8)]
    assert HYDRA_RATE_TABLE.base_rate is HYDRA_BASE_RATE


def test_empty_rate_table_rejected():
    with pytest.raises(ConfigurationError):
        RateTable([])
