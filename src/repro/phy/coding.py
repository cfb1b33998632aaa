"""Convolutional coding rates used by the Hydra PHY.

The paper's PHY uses a bit-interleaved binary convolutional code with rates
1/2, 2/3, 3/4 and 5/6.  We model coding as an effective SNR gain applied
before the uncoded BER expression; the gains are conventional soft-decision
Viterbi figures and only need to be roughly right because the experiments run
at 25 dB SNR where the first four rates are essentially error free and the
64-QAM rates are essentially unusable (as the paper reports).
"""

from __future__ import annotations

import enum
from fractions import Fraction


class CodingRate(enum.Enum):
    """A convolutional code rate."""

    HALF = (Fraction(1, 2), 5.0)
    TWO_THIRDS = (Fraction(2, 3), 4.0)
    THREE_QUARTERS = (Fraction(3, 4), 3.5)
    FIVE_SIXTHS = (Fraction(5, 6), 3.0)

    def __init__(self, fraction: Fraction, coding_gain_db: float) -> None:
        self.fraction = fraction
        self.coding_gain_db = coding_gain_db

    @property
    def value_float(self) -> float:
        """The code rate as a float (information bits / coded bits)."""
        return float(self.fraction)

    def __str__(self) -> str:
        return f"{self.fraction.numerator}/{self.fraction.denominator}"
