"""Unit tests for the subframe error model and its process-wide memo."""

from __future__ import annotations

import copy
import pickle
import random
from dataclasses import dataclass

import pytest
from hypothesis import given, strategies as st

from repro.channel import WirelessChannel
from repro.phy.device import Phy
from repro.phy.error_model import (
    aging_error_probability,
    noise_error_probability,
    subframe_error_probability,
    subframe_survives,
)
from repro.phy.frame import PhyFrame
from repro.phy.rates import HYDRA_BASE_RATE, HYDRA_SISO_RATES, rate_for_mbps
from repro.sim import Simulator

PAPER_SNR_DB = 25.0


def test_experiment_rates_are_reliable_at_paper_snr():
    """The four rates used in the paper's experiments are essentially error free at 25 dB."""
    for mbps in (0.65, 1.3, 1.95, 2.6):
        per = subframe_error_probability(PAPER_SNR_DB, rate_for_mbps(mbps), 1464, 0.0)
        assert per < 1e-3


def test_64qam_rates_unreliable_at_paper_snr():
    """Section 5: the SNR 'did not allow reliable operation of the rates that required 64-QAM'."""
    for mbps in (5.2, 5.85, 6.5):
        per = subframe_error_probability(PAPER_SNR_DB, rate_for_mbps(mbps), 1464, 0.0)
        assert per > 0.5


def test_noise_error_probability_increases_with_size():
    rate = rate_for_mbps(3.9)
    small = noise_error_probability(18.0, rate, 100)
    large = noise_error_probability(18.0, rate, 10_000)
    assert large > small


def test_zero_size_never_errors():
    assert noise_error_probability(0.0, HYDRA_BASE_RATE, 0) == 0.0


def test_aging_zero_within_coherence():
    assert aging_error_probability(0) == 0.0
    assert aging_error_probability(119_999) == 0.0


def test_aging_rises_steeply_beyond_coherence():
    just_over = aging_error_probability(121_000)
    far_over = aging_error_probability(140_000)
    assert 0.0 < just_over < far_over
    assert far_over > 0.9


def test_combined_probability_combines_independently():
    rate = rate_for_mbps(3.9)
    p_noise = noise_error_probability(15.0, rate, 1464)
    p_aging = aging_error_probability(130_000)
    combined = subframe_error_probability(15.0, rate, 1464, 130_000)
    assert combined == pytest.approx(1 - (1 - p_noise) * (1 - p_aging))


def test_subframe_survives_is_deterministic_at_extremes():
    rng = random.Random(0)
    # Essentially error-free conditions.
    assert subframe_survives(rng, 30.0, HYDRA_BASE_RATE, 100, 0.0)
    # Hopeless conditions (very low SNR, far beyond coherence).
    assert not subframe_survives(rng, -10.0, HYDRA_SISO_RATES[-1], 1464, 500_000)


def test_control_frame_survives_at_base_rate():
    # The PHY draws a control frame as one subframe ending at offset 0.
    rng = random.Random(1)
    assert subframe_survives(rng, PAPER_SNR_DB, HYDRA_BASE_RATE, 14, 0.0)


def test_sampling_frequency_matches_probability():
    rate = rate_for_mbps(5.2)
    p = subframe_error_probability(PAPER_SNR_DB, rate, 1464, 0.0)
    rng = random.Random(7)
    trials = 2000
    failures = sum(
        0 if subframe_survives(rng, PAPER_SNR_DB, rate, 1464, 0.0) else 1
        for _ in range(trials)
    )
    assert failures / trials == pytest.approx(p, abs=0.05)


@given(
    snr=st.floats(min_value=-10, max_value=40),
    size=st.integers(min_value=0, max_value=20_000),
    offset=st.floats(min_value=0, max_value=1e6),
    rate_index=st.integers(min_value=0, max_value=7),
)
def test_probabilities_always_in_unit_interval(snr, size, offset, rate_index):
    rate = HYDRA_SISO_RATES[rate_index]
    p = subframe_error_probability(snr, rate, size, offset)
    assert 0.0 <= p <= 1.0


# ---------------------------------------------------------------------------
# The process-wide memo
# ---------------------------------------------------------------------------

def test_probability_memo_never_exceeds_its_cap():
    # Mobile links: a fresh SNR almost every call, through both entry points.
    assert subframe_error_probability.cache_info().maxsize == 256
    rng = random.Random(3)
    rate = rate_for_mbps(1.3)
    sizes = []
    for i in range(3 * 256):
        snr = 10.0 + i * 1e-3
        if i % 2:
            subframe_survives(rng, snr, rate, 1464, 0.0)
        else:
            subframe_error_probability(snr, rate, 1464, 0.0)
        sizes.append(subframe_error_probability.cache_info().currsize)
    assert max(sizes) == sizes[-1] == 256


@dataclass
class _Subframe:
    size_bytes: int


class _MemoProbe:
    """A PHY listener that snapshots the memo's counters as its PHY delivers."""

    def __init__(self) -> None:
        self.seen = []

    def on_carrier_busy(self) -> None:
        pass

    def on_carrier_idle(self) -> None:
        pass

    def on_transmit_complete(self, frame) -> None:
        pass

    def on_frame_received(self, result) -> None:
        info = subframe_error_probability.cache_info()
        self.seen.append((info.hits, info.misses))


def test_phys_share_one_probability_memo():
    """PHY B decodes the subframes PHY A just decoded from the memo alone.

    A and B stand at the same distance from the sender, so they see the
    same (SNR, rate, size, offset) for every subframe of the frame; A's end
    of reception is scheduled first.
    """
    sim = Simulator(seed=1)
    channel = WirelessChannel(sim)
    sender = Phy(sim, channel, position=(0.0, 0.0), name="sender")
    first, second = _MemoProbe(), _MemoProbe()
    Phy(sim, channel, position=(2.5, 0.0), name="a").attach_listener(first)
    Phy(sim, channel, position=(-2.5, 0.0), name="b").attach_listener(second)
    # Start cold: each of the frame's three subframes is one distinct key.
    subframe_error_probability.cache_clear()
    sender.send(PhyFrame.data([], [_Subframe(1464), _Subframe(900), _Subframe(1464)],
                              unicast_rate=rate_for_mbps(0.65)))
    sim.run()
    [(hits_after_a, misses_after_a)] = first.seen
    [(hits_after_b, misses_after_b)] = second.seen
    assert misses_after_a == 3
    assert misses_after_b == misses_after_a
    assert hits_after_b == hits_after_a + 3


#: SNRs from -10 dB to 40 dB in 0.37 dB steps.
SWEEP_SNRS_DB = [-10.0 + 0.37 * step for step in range(136)]


@pytest.mark.parametrize("rate", HYDRA_SISO_RATES, ids=lambda rate: rate.name)
def test_memo_miss_path_equals_the_reference_functions_exactly(rate):
    """The memoised function reruns the reference float operations on
    per-rate constants; every probability must come out bit-identical
    (``==``), whether computed afresh or served from the memo."""
    compute = subframe_error_probability.__wrapped__
    for snr in SWEEP_SNRS_DB:
        for size in (0, 14, 160, 1464, 11_000):
            for offset in (0.0, 119_999.0, 130_000.0):
                expected = 1.0 - ((1.0 - noise_error_probability(snr, rate, size))
                                  * (1.0 - aging_error_probability(offset)))
                assert compute(snr, rate, size, offset) == expected, (snr, size, offset)
                assert subframe_error_probability(
                    snr, rate, size, offset) == expected, (snr, size, offset)


def test_rates_keep_their_identity_through_pickling_and_copying():
    for rate in HYDRA_SISO_RATES:
        assert pickle.loads(pickle.dumps(rate)) is rate
        assert copy.deepcopy(rate) is rate
    assert len(set(HYDRA_SISO_RATES)) == len(HYDRA_SISO_RATES)
