"""PHY rate table.

The Hydra prototype supports SISO data rates of 0.65, 1.30, 1.95, 2.60, 3.90,
5.20, 5.85 and 6.50 Mbps (Table 1) — exactly the 802.11n MCS 0–7 rates scaled
down by a factor of ten because of USB/processing limits.  The experiments in
the paper use the first four SISO rates with cyclic delay diversity (a single
spatial stream), pinned per run; Table 1's 2x/3x/4x MIMO modes and Hydra's
RBAR/ARF rate adaptation (Section 4.1.2) are not modelled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.errors import ConfigurationError
from repro.phy.coding import CodingRate
from repro.phy.modulation import Modulation
from repro.units import mbps


@dataclass(frozen=True, slots=True, eq=False)
class PhyRate:
    """A single (modulation, coding rate, data rate) operating point.

    The only instances are the members of :data:`HYDRA_SISO_RATES`, so a rate
    hashes and compares by identity (``eq=False``): the error model probes
    its memo with the rate once per subframe per receiver, and the generated
    ``__hash__`` ran in Python and hashed two enums on every probe.  A
    pickled rate loads as the Hydra rate of the same name, so identity
    survives a trip through a worker process.
    """

    name: str
    modulation: Modulation
    coding: CodingRate
    data_rate_bps: float

    @property
    def data_rate_mbps(self) -> float:
        """Data rate in Mbps."""
        return self.data_rate_bps / 1e6

    def transmission_time(self, size_bytes: int) -> float:
        """Seconds needed to serialise ``size_bytes`` at this rate."""
        return (size_bytes * 8.0) / self.data_rate_bps

    def bits_in_time(self, duration_s: float) -> float:
        """Number of information bits carried in ``duration_s`` seconds."""
        return duration_s * self.data_rate_bps

    def __reduce__(self):
        return (_siso_rate, (self.name,))

    def __str__(self) -> str:
        return f"{self.name} ({self.modulation} {self.coding}, {self.data_rate_mbps:.2f} Mbps)"


def _hydra_siso_rates() -> List[PhyRate]:
    specs: List[Tuple[str, Modulation, CodingRate, float]] = [
        ("MCS0", Modulation.BPSK, CodingRate.HALF, 0.65),
        ("MCS1", Modulation.QPSK, CodingRate.HALF, 1.30),
        ("MCS2", Modulation.QPSK, CodingRate.THREE_QUARTERS, 1.95),
        ("MCS3", Modulation.QAM16, CodingRate.HALF, 2.60),
        ("MCS4", Modulation.QAM16, CodingRate.THREE_QUARTERS, 3.90),
        ("MCS5", Modulation.QAM64, CodingRate.TWO_THIRDS, 5.20),
        ("MCS6", Modulation.QAM64, CodingRate.THREE_QUARTERS, 5.85),
        ("MCS7", Modulation.QAM64, CodingRate.FIVE_SIXTHS, 6.50),
    ]
    return [
        PhyRate(name=name, modulation=mod, coding=cod, data_rate_bps=mbps(rate))
        for name, mod, cod, rate in specs
    ]


#: The eight Hydra SISO rates from Table 1 of the paper, slowest first.
HYDRA_SISO_RATES: Tuple[PhyRate, ...] = tuple(_hydra_siso_rates())

#: The base (most robust) rate; control frames are transmitted at this rate.
HYDRA_BASE_RATE: PhyRate = HYDRA_SISO_RATES[0]

_RATES_BY_NAME: Dict[str, PhyRate] = {rate.name: rate for rate in HYDRA_SISO_RATES}


def rate_for_mbps(rate_mbps: float) -> PhyRate:
    """The Hydra rate whose nominal data rate is within 0.01 Mbps of ``rate_mbps``."""
    for rate in HYDRA_SISO_RATES:
        if abs(rate.data_rate_mbps - rate_mbps) <= 0.01:
            return rate
    raise ConfigurationError(f"no PHY rate close to {rate_mbps} Mbps in table")


def _siso_rate(name: str) -> PhyRate:
    """The Hydra rate called ``name`` (what a pickled rate loads as)."""
    return _RATES_BY_NAME[name]
