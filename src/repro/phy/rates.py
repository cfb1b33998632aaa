"""PHY rate table.

The Hydra prototype supports SISO data rates of 0.65, 1.30, 1.95, 2.60, 3.90,
5.20, 5.85 and 6.50 Mbps (Table 1) — exactly the 802.11n MCS 0–7 rates scaled
down by a factor of ten because of USB/processing limits — plus MIMO modes at
2x/3x/4x those rates.  The experiments in the paper use the first four SISO
rates with cyclic delay diversity (a single spatial stream).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

from repro.errors import ConfigurationError
from repro.phy.coding import CodingRate
from repro.phy.modulation import Modulation
from repro.units import mbps


@dataclass(frozen=True, slots=True)
class PhyRate:
    """A single (modulation, coding rate, data rate) operating point."""

    name: str
    modulation: Modulation
    coding: CodingRate
    data_rate_bps: float
    spatial_streams: int = 1

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


#: The eight Hydra SISO rates from Table 1 of the paper.
HYDRA_SISO_RATES: Tuple[PhyRate, ...] = tuple(_hydra_siso_rates())

#: The base (most robust) rate; control frames are transmitted at this rate.
HYDRA_BASE_RATE: PhyRate = HYDRA_SISO_RATES[0]


class RateTable:
    """An ordered collection of :class:`PhyRate` operating points."""

    __slots__ = ("_rates", "_by_name")

    def __init__(self, rates: Iterable[PhyRate]):
        self._rates: List[PhyRate] = sorted(rates, key=lambda r: r.data_rate_bps)
        if not self._rates:
            raise ConfigurationError("rate table must contain at least one rate")
        self._by_name: Dict[str, PhyRate] = {r.name: r for r in self._rates}

    def __iter__(self):
        return iter(self._rates)

    def __len__(self) -> int:
        return len(self._rates)

    def __contains__(self, rate: PhyRate) -> bool:
        return rate in self._rates

    @property
    def base_rate(self) -> PhyRate:
        """The slowest (most robust) rate in the table."""
        return self._rates[0]

    @property
    def max_rate(self) -> PhyRate:
        """The fastest rate in the table."""
        return self._rates[-1]

    def by_name(self, name: str) -> PhyRate:
        """Look up a rate by its MCS name."""
        try:
            return self._by_name[name]
        except KeyError:
            raise ConfigurationError(f"unknown rate name {name!r}") from None

    def by_mbps(self, rate_mbps: float, tolerance: float = 0.01) -> PhyRate:
        """Look up a rate by its nominal data rate in Mbps."""
        for rate in self._rates:
            if abs(rate.data_rate_mbps - rate_mbps) <= tolerance:
                return rate
        raise ConfigurationError(f"no PHY rate close to {rate_mbps} Mbps in table")

    def index_of(self, rate: PhyRate) -> int:
        """Position of ``rate`` in the (ascending) table."""
        return self._rates.index(rate)

    def next_lower(self, rate: PhyRate) -> PhyRate:
        """The next slower rate (or ``rate`` itself if already the slowest)."""
        index = self.index_of(rate)
        return self._rates[max(0, index - 1)]

    def next_higher(self, rate: PhyRate) -> PhyRate:
        """The next faster rate (or ``rate`` itself if already the fastest)."""
        index = self.index_of(rate)
        return self._rates[min(len(self._rates) - 1, index + 1)]


def required_snr_db(rate: PhyRate) -> float:
    """Rule-of-thumb SNR (dB) needed for reliable operation at ``rate``.

    These figures are used only by the RBAR link-adaptation algorithm (which
    the paper's experiments leave disabled); they are the conventional
    802.11a/n receiver sensitivities shifted to this model's scale.
    """
    thresholds = {
        ("BPSK", "1/2"): 5.0,
        ("QPSK", "1/2"): 8.0,
        ("QPSK", "3/4"): 11.0,
        ("16-QAM", "1/2"): 14.0,
        ("16-QAM", "3/4"): 18.0,
        ("64-QAM", "2/3"): 26.0,
        ("64-QAM", "3/4"): 28.0,
        ("64-QAM", "5/6"): 30.0,
    }
    return thresholds.get((rate.modulation.label, str(rate.coding)), 30.0)


def hydra_rate_table(mimo_multiplier: int = 1) -> RateTable:
    """Build the Hydra rate table.

    Parameters
    ----------
    mimo_multiplier:
        1 for SISO (and cyclic delay diversity, which carries a single spatial
        stream), 2/3/4 for the spatial-multiplexing MIMO modes listed in
        Table 1 of the paper.
    """
    if mimo_multiplier < 1 or mimo_multiplier > 4:
        raise ConfigurationError("mimo_multiplier must be between 1 and 4")
    rates = [
        PhyRate(
            name=rate.name if mimo_multiplier == 1 else f"{rate.name}x{mimo_multiplier}",
            modulation=rate.modulation,
            coding=rate.coding,
            data_rate_bps=rate.data_rate_bps * mimo_multiplier,
            spatial_streams=mimo_multiplier,
        )
        for rate in HYDRA_SISO_RATES
    ]
    return RateTable(rates)
