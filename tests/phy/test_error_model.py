"""Unit tests for the subframe error model."""

from __future__ import annotations

import copy
import pickle
import random

import pytest
from hypothesis import given, strategies as st

from repro.phy.error_model import ErrorModel
from repro.phy.rates import HYDRA_BASE_RATE, HYDRA_SISO_RATES, rate_for_mbps

PAPER_SNR_DB = 25.0


def test_experiment_rates_are_reliable_at_paper_snr():
    """The four rates used in the paper's experiments are essentially error free at 25 dB."""
    model = ErrorModel()
    for mbps in (0.65, 1.3, 1.95, 2.6):
        per = model.subframe_error_probability(PAPER_SNR_DB, rate_for_mbps(mbps), 1464)
        assert per < 1e-3


def test_64qam_rates_unreliable_at_paper_snr():
    """Section 5: the SNR 'did not allow reliable operation of the rates that required 64-QAM'."""
    model = ErrorModel()
    for mbps in (5.2, 5.85, 6.5):
        per = model.subframe_error_probability(PAPER_SNR_DB, rate_for_mbps(mbps), 1464)
        assert per > 0.5


def test_noise_error_probability_increases_with_size():
    model = ErrorModel()
    rate = rate_for_mbps(3.9)
    small = model.noise_error_probability(18.0, rate, 100)
    large = model.noise_error_probability(18.0, rate, 10_000)
    assert large > small


def test_zero_size_never_errors():
    model = ErrorModel()
    assert model.noise_error_probability(0.0, HYDRA_BASE_RATE, 0) == 0.0


def test_aging_zero_within_coherence():
    model = ErrorModel()
    assert model.aging_error_probability(0) == 0.0
    assert model.aging_error_probability(119_999) == 0.0


def test_aging_rises_steeply_beyond_coherence():
    model = ErrorModel()
    just_over = model.aging_error_probability(121_000)
    far_over = model.aging_error_probability(140_000)
    assert 0.0 < just_over < far_over
    assert far_over > 0.9


def test_combined_probability_combines_independently():
    model = ErrorModel()
    rate = rate_for_mbps(3.9)
    p_noise = model.noise_error_probability(15.0, rate, 1464)
    p_aging = model.aging_error_probability(130_000)
    combined = model.subframe_error_probability(15.0, rate, 1464, 130_000)
    assert combined == pytest.approx(1 - (1 - p_noise) * (1 - p_aging))


def test_subframe_survives_is_deterministic_at_extremes():
    model = ErrorModel()
    rng = random.Random(0)
    # Essentially error-free conditions.
    assert model.subframe_survives(rng, 30.0, HYDRA_BASE_RATE, 100)
    # Hopeless conditions (very low SNR, far beyond coherence).
    assert not model.subframe_survives(rng, -10.0, HYDRA_SISO_RATES[-1], 1464, 500_000)


def test_control_frame_survives_at_base_rate():
    # The PHY draws a control frame as one subframe ending at offset 0.
    model = ErrorModel()
    rng = random.Random(1)
    assert model.subframe_survives(rng, PAPER_SNR_DB, HYDRA_BASE_RATE, 14, 0.0)


def test_sampling_frequency_matches_probability():
    model = ErrorModel()
    rate = rate_for_mbps(5.2)
    p = model.subframe_error_probability(PAPER_SNR_DB, rate, 1464)
    rng = random.Random(7)
    trials = 2000
    failures = sum(
        0 if model.subframe_survives(rng, PAPER_SNR_DB, rate, 1464) else 1 for _ in range(trials)
    )
    assert failures / trials == pytest.approx(p, abs=0.05)


@given(
    snr=st.floats(min_value=-10, max_value=40),
    size=st.integers(min_value=0, max_value=20_000),
    offset=st.floats(min_value=0, max_value=1e6),
    rate_index=st.integers(min_value=0, max_value=7),
)
def test_probabilities_always_in_unit_interval(snr, size, offset, rate_index):
    model = ErrorModel()
    rate = HYDRA_SISO_RATES[rate_index]
    p = model.subframe_error_probability(snr, rate, size, offset)
    assert 0.0 <= p <= 1.0


def test_probability_memo_never_exceeds_its_cap():
    model = ErrorModel()
    rng = random.Random(3)
    rate = rate_for_mbps(1.3)
    sizes = []
    # Mobile links: a fresh SNR almost every call, through both entry points.
    for i in range(3 * ErrorModel._CACHE_LIMIT):
        snr = 10.0 + i * 1e-3
        if i % 2:
            model.subframe_survives(rng, snr, rate, 1464)
        else:
            model.subframe_error_probability(snr, rate, 1464)
        sizes.append(len(model._probability_cache))
    assert max(sizes) == ErrorModel._CACHE_LIMIT


#: SNRs from -10 dB to 40 dB in 0.37 dB steps.
SWEEP_SNRS_DB = [-10.0 + 0.37 * step for step in range(136)]


@pytest.mark.parametrize("rate", HYDRA_SISO_RATES, ids=lambda rate: rate.name)
def test_memo_miss_path_equals_the_reference_functions_exactly(rate):
    """The miss path reruns the reference float operations on per-rate
    constants; every probability must come out bit-identical (``==``)."""
    for snr in SWEEP_SNRS_DB:
        for size in (0, 14, 160, 1464, 11_000):
            for offset in (0.0, 119_999.0, 130_000.0):
                reference = ErrorModel()
                expected = 1.0 - ((1.0 - reference.noise_error_probability(snr, rate, size))
                                  * (1.0 - reference.aging_error_probability(offset)))
                assert ErrorModel().subframe_error_probability(
                    snr, rate, size, offset) == expected, (snr, size, offset)


def test_rates_keep_their_identity_through_pickling_and_copying():
    for rate in HYDRA_SISO_RATES:
        assert pickle.loads(pickle.dumps(rate)) is rate
        assert copy.deepcopy(rate) is rate
    assert len(set(HYDRA_SISO_RATES)) == len(HYDRA_SISO_RATES)
