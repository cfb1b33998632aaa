"""Unit tests for modulation and coding models."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.phy.coding import CodingRate
from repro.phy.modulation import Modulation, q_function


def test_bits_per_symbol():
    assert Modulation.BPSK.bits_per_symbol == 1
    assert Modulation.QPSK.bits_per_symbol == 2
    assert Modulation.QAM16.bits_per_symbol == 4
    assert Modulation.QAM64.bits_per_symbol == 6


def test_constellation_sizes():
    assert Modulation.BPSK.constellation_size == 2
    assert Modulation.QAM64.constellation_size == 64


def test_q_function_values():
    assert q_function(0.0) == pytest.approx(0.5)
    assert q_function(6.0) < 1e-8
    assert q_function(-6.0) > 1 - 1e-8


def test_ber_decreases_with_snr():
    for modulation in Modulation:
        low = modulation.bit_error_rate(5.0)
        high = modulation.bit_error_rate(25.0)
        assert high <= low


def test_denser_constellations_have_higher_ber_at_same_snr():
    snr = 12.0
    bers = [m.bit_error_rate(snr) for m in
            (Modulation.BPSK, Modulation.QPSK, Modulation.QAM16, Modulation.QAM64)]
    # At the same *symbol* SNR, packing more bits per symbol costs reliability.
    assert bers[0] < bers[1] < bers[2] < bers[3]


def test_bpsk_reliable_at_high_snr():
    assert Modulation.BPSK.bit_error_rate(20.0, coding_rate=0.5) < 1e-12


@given(
    snr=st.floats(min_value=-20.0, max_value=60.0),
    modulation=st.sampled_from(list(Modulation)),
    coding=st.floats(min_value=0.1, max_value=1.0),
)
def test_ber_is_a_probability(snr, modulation, coding):
    ber = modulation.bit_error_rate(snr, coding)
    assert 0.0 <= ber <= 0.5


def test_coding_rate_fractions():
    assert CodingRate.HALF.value_float == pytest.approx(0.5)
    assert CodingRate.TWO_THIRDS.value_float == pytest.approx(2 / 3)
    assert CodingRate.THREE_QUARTERS.value_float == pytest.approx(0.75)
    assert CodingRate.FIVE_SIXTHS.value_float == pytest.approx(5 / 6)
    assert str(CodingRate.THREE_QUARTERS) == "3/4"
    assert str(CodingRate.HALF) == "1/2"


def test_stronger_codes_have_higher_gain():
    gains = [CodingRate.HALF, CodingRate.TWO_THIRDS, CodingRate.THREE_QUARTERS, CodingRate.FIVE_SIXTHS]
    values = [c.coding_gain_db for c in gains]
    assert values == sorted(values, reverse=True)
