"""Subframe error model.

Each MAC subframe inside a physical frame is accepted or rejected
independently based on its own cyclic redundancy check (Section 4.2.2 of the
paper).  The probability that a subframe is corrupted has two components:

* a **noise term** — the standard AWGN bit-error-rate of the modulation at the
  effective SNR (after coding gain and the software-radio implementation
  loss), accumulated over the subframe's bits; and
* an **aging term** — Hydra estimates the channel once, from the preamble.
  Subframes whose last sample lies beyond the channel coherence limit
  (~120 Ksamples) are demodulated against a stale estimate and fail with
  quickly increasing probability.  This is what produces the throughput
  collapse beyond the 5/11/15 KB aggregation thresholds in Figure 7.
"""

from __future__ import annotations

import math
import random
from typing import Dict

from repro.phy.modulation import Modulation
from repro.phy.rates import HYDRA_SISO_RATES, PhyRate

#: SNR penalty representing the prototype's front-end and software
#: demodulation losses.  Calibrated so that, at the paper's 25 dB operating
#: SNR, the 64-QAM rates are unreliable (as reported in Section 5) while
#: BPSK/QPSK/16-QAM are essentially error free.
IMPLEMENTATION_LOSS_DB = 8.0
#: Number of PHY samples after the preamble for which the channel estimate
#: remains valid (the paper observes ~120 Ksamples, Section 6.1).
COHERENCE_SAMPLES = 120_000.0
#: Fraction of :data:`COHERENCE_SAMPLES` over which the aging failure
#: probability rises towards one once the limit is exceeded; smaller values
#: give a sharper collapse.
AGING_SCALE_FRACTION = 0.05
_AGING_SCALE = COHERENCE_SAMPLES * AGING_SCALE_FRACTION

_SQRT2 = math.sqrt(2.0)


def _ber_constants(rate: PhyRate) -> tuple:
    """What :meth:`Modulation.bit_error_rate` derives from ``rate`` alone.

    ``(coding_gain_db, Eb/N0 denominator, is PSK, QAM coefficient, 3k,
    M - 1)``, each computed by the same float operations the reference
    functions run, so the miss path below reproduces them bit for bit.
    """
    modulation = rate.modulation
    k = modulation.bits_per_symbol
    m = modulation.constellation_size
    return (rate.coding.coding_gain_db,
            k * max(rate.coding.value_float, 1e-9),
            modulation in (Modulation.BPSK, Modulation.QPSK),
            (4.0 / k) * (1.0 - 1.0 / math.sqrt(m)),
            3.0 * k,
            m - 1.0)


#: Per-rate constants of the error model's miss path, one entry per table rate.
_BER_CONSTANTS = {rate: _ber_constants(rate) for rate in HYDRA_SISO_RATES}


class ErrorModel:
    """Computes and samples per-subframe error probabilities.

    ``subframe_error_probability`` is a pure function of its arguments, and
    stationary scenarios evaluate it with the same handful of (SNR, rate,
    size, offset) tuples millions of times — once per subframe per receiver
    per frame — so the model memoises the probability.  Sampling still
    draws from the caller's stream on every call, so reproducibility is
    untouched: the cache changes *when math runs*, never *which numbers
    come out*.
    """

    __slots__ = ("_probability_cache",)

    #: Drop the memo once it holds this many distinct argument tuples.  A
    #: stationary PHY's working set is a few dozen tuples (at most 79 in any
    #: paper experiment), while moving links produce a fresh SNR almost every
    #: frame, so a larger memo only fills with single-use entries.
    _CACHE_LIMIT = 256

    def __init__(self) -> None:
        self._probability_cache: Dict[tuple, float] = {}

    # ------------------------------------------------------------------
    # Probabilities
    # ------------------------------------------------------------------
    def bit_error_rate(self, snr_db: float, rate: PhyRate) -> float:
        """Post-coding BER at the given received SNR for ``rate``."""
        effective_snr = snr_db + rate.coding.coding_gain_db - IMPLEMENTATION_LOSS_DB
        return rate.modulation.bit_error_rate(effective_snr, rate.coding.value_float)

    def noise_error_probability(self, snr_db: float, rate: PhyRate, size_bytes: int) -> float:
        """Probability that at least one of the subframe's bits is in error."""
        ber = self.bit_error_rate(snr_db, rate)
        n_bits = max(size_bytes, 0) * 8
        if ber <= 0.0 or n_bits == 0:
            return 0.0
        if ber >= 0.5:
            return 1.0
        # log-domain to avoid underflow for very small BER * large frames
        log_ok = n_bits * math.log1p(-ber)
        return 1.0 - math.exp(log_ok)

    def aging_error_probability(self, end_offset_samples: float) -> float:
        """Probability of failure due to a stale channel estimate."""
        excess = end_offset_samples - COHERENCE_SAMPLES
        if excess <= 0:
            return 0.0
        return 1.0 - math.exp(-excess / _AGING_SCALE)

    def subframe_error_probability(self, snr_db: float, rate: PhyRate, size_bytes: int,
                                   end_offset_samples: float = 0.0) -> float:
        """Combined probability that a subframe fails its CRC (memoised).

        Equals ``1 - (1 - noise_error_probability) * (1 - aging_error_probability)``
        exactly: the miss path runs the reference functions' float
        operations, in the same order, on per-rate constants computed once.
        """
        key = (snr_db, rate, size_bytes, end_offset_samples)
        probability = self._probability_cache.get(key)
        if probability is None:
            probability = self._remember(key)
        return probability

    def _remember(self, key: tuple) -> float:
        """Compute the probability for a memo miss and store it."""
        snr_db, rate, size_bytes, end_offset_samples = key
        gain_db, denominator, psk, coefficient, three_k, m_minus_one = (
            _BER_CONSTANTS.get(rate) or _ber_constants(rate))
        # Noise term: bit_error_rate -> Modulation.bit_error_rate -> q_function.
        ebn0 = 10.0 ** ((snr_db + gain_db - IMPLEMENTATION_LOSS_DB) / 10.0) / denominator
        if ebn0 <= 0:
            ber = 0.5
        elif psk:
            ber = min(max(0.5 * math.erfc(math.sqrt(2.0 * ebn0) / _SQRT2), 0.0), 0.5)
        else:
            argument = math.sqrt(three_k * ebn0 / m_minus_one)
            ber = min(max(coefficient * (0.5 * math.erfc(argument / _SQRT2)), 0.0), 0.5)
        n_bits = max(size_bytes, 0) * 8
        if ber <= 0.0 or n_bits == 0:
            p_noise = 0.0
        elif ber >= 0.5:
            p_noise = 1.0
        else:
            p_noise = 1.0 - math.exp(n_bits * math.log1p(-ber))
        # Aging term: aging_error_probability.
        excess = end_offset_samples - COHERENCE_SAMPLES
        if excess <= 0:
            p_aging = 0.0
        else:
            p_aging = 1.0 - math.exp(-excess / _AGING_SCALE)
        probability = 1.0 - (1.0 - p_noise) * (1.0 - p_aging)
        cache = self._probability_cache
        if len(cache) >= self._CACHE_LIMIT:
            cache.clear()
        cache[key] = probability
        return probability

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def subframe_survives(self, rng: random.Random, snr_db: float, rate: PhyRate,
                          size_bytes: int, end_offset_samples: float = 0.0) -> bool:
        """Draw whether the subframe passes its CRC."""
        # Inline cache probe (this runs once per subframe per receiver; the
        # extra call into subframe_error_probability showed up in profiles).
        key = (snr_db, rate, size_bytes, end_offset_samples)
        p_error = self._probability_cache.get(key)
        if p_error is None:
            p_error = self._remember(key)
        if p_error <= 0.0:
            return True
        if p_error >= 1.0:
            return False
        return rng.random() >= p_error
