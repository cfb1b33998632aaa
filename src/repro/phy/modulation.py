"""Modulation schemes supported by the Hydra PHY.

Hydra (Table 1 of the paper) supports BPSK, QPSK, 16-QAM and 64-QAM with a
bit-interleaved convolutional code.  The BER approximations below are the
standard Gray-coded AWGN expressions; they are evaluated on the *effective*
SNR after coding gain and implementation loss have been applied by
:mod:`repro.phy.error_model`.
"""

from __future__ import annotations

import enum
import math


def q_function(x: float) -> float:
    """Gaussian tail probability Q(x) = P(N(0,1) > x)."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


class Modulation(enum.Enum):
    """A constellation used by the PHY."""

    BPSK = ("BPSK", 1)
    QPSK = ("QPSK", 2)
    QAM16 = ("16-QAM", 4)
    QAM64 = ("64-QAM", 6)

    def __init__(self, label: str, bits_per_symbol: int) -> None:
        self.label = label
        self.bits_per_symbol = bits_per_symbol

    @property
    def constellation_size(self) -> int:
        """Number of constellation points (M)."""
        return 2 ** self.bits_per_symbol

    def bit_error_rate(self, snr_db: float, coding_rate: float = 1.0) -> float:
        """Approximate bit error rate at the given per-symbol SNR.

        Parameters
        ----------
        snr_db:
            Effective per-symbol signal-to-noise ratio in dB (after coding
            gain / implementation loss adjustments).
        coding_rate:
            Fraction of transmitted bits that are information bits; used to
            convert symbol SNR into Eb/N0.
        """
        snr_linear = 10.0 ** (snr_db / 10.0)
        # Eb/N0 = Es/N0 / (bits-per-symbol * coding-rate)
        denominator = self.bits_per_symbol * max(coding_rate, 1e-9)
        ebn0 = snr_linear / denominator
        if ebn0 <= 0:
            return 0.5

        if self in (Modulation.BPSK, Modulation.QPSK):
            ber = q_function(math.sqrt(2.0 * ebn0))
        else:
            m = self.constellation_size
            k = self.bits_per_symbol
            # Gray-coded square M-QAM approximation.
            coefficient = (4.0 / k) * (1.0 - 1.0 / math.sqrt(m))
            argument = math.sqrt(3.0 * k * ebn0 / (m - 1.0))
            ber = coefficient * q_function(argument)
        return min(max(ber, 0.0), 0.5)

    def __str__(self) -> str:
        return self.label
