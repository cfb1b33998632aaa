"""Physical-layer model of the Hydra 802.11n-style software-radio PHY.

The PHY model captures the three things that matter for the paper's
experiments:

* **airtime arithmetic** — how long a (possibly aggregated) frame occupies the
  medium given its broadcast/unicast rates and sizes, including the long
  software-radio preamble;
* **sample accounting** — Hydra's aggregation ceiling is expressed in PHY
  samples (~120 Ksamples), so the model tracks how many samples each subframe
  ends at;
* **an error model** — SNR-driven BER/PER per modulation and coding rate plus
  a channel-estimate-aging term that makes subframes beyond the coherence
  limit fail, reproducing Figure 7's collapse.
"""

from repro.phy.modulation import Modulation
from repro.phy.coding import CodingRate
from repro.phy.rates import PhyRate, HYDRA_SISO_RATES, rate_for_mbps
from repro.phy.frame import FrameKind, PhyFrame, ReceptionResult
from repro.phy.device import Phy, PhyListener, PhyState

__all__ = [
    "Modulation",
    "CodingRate",
    "PhyRate",
    "HYDRA_SISO_RATES",
    "rate_for_mbps",
    "FrameKind",
    "PhyFrame",
    "ReceptionResult",
    "Phy",
    "PhyListener",
    "PhyState",
]
