"""Radio propagation: the paper's indoor path loss plus optional shadowing.

The experiments in the paper run at a fixed 25 dB SNR indoors with stationary
nodes, so a link's loss is large-scale path loss only; small-scale effects
enter the reproduction through the PHY error model (noise term +
channel-estimate aging) rather than per-packet fading draws.

Every channel uses one log-distance curve, :meth:`IndoorPropagation.path_loss_db`.
With the Hydra transmit power of 7.7 mW (~8.9 dBm), a 1 MHz noise floor of
about -94 dBm and nodes spaced ~2.5 m apart, its constants yield close to the
25 dB SNR the authors report (Section 5), while keeping every node in every
other node's carrier-sense range.

For the mobile scenarios (which go beyond the paper's setup), a shadowing
sigma above zero adds a deterministic per-link log-normal offset,
:meth:`IndoorPropagation.shadowing_db`, so that node motion changes *loss*,
not merely distance.
"""

from __future__ import annotations

import math
from typing import Dict, Tuple

from repro.errors import ConfigurationError
from repro.sim.randomness import RandomStreams

Position = Tuple[float, float]

#: Loss at 1 m (dB) and path-loss exponent of the indoor log-distance curve.
REFERENCE_LOSS_DB = 66.0
PATH_LOSS_EXPONENT = 3.0
#: Distances below this (metres) are clamped to it, so the loss stays finite.
MIN_DISTANCE_M = 0.1
#: Shadowing draws are clamped to ± this many sigmas (see ``max_range_m``).
SHADOWING_CLAMP_SIGMAS = 6.0


def distance_between(a: Position, b: Position) -> float:
    """Euclidean distance between two 2-D positions in metres."""
    return math.hypot(a[0] - b[0], a[1] - b[1])


class IndoorPropagation:
    """The indoor log-distance loss, plus per-link shadowing when sigma > 0.

    Each link gets one Gaussian-in-dB offset with standard deviation
    ``sigma_db``, drawn from a stream derived from the simulator's root seed
    and the link's identity, so offsets are deterministic per seed,
    independent of the order in which links are first evaluated, and
    reproducible across processes.  Both directions of a link share one
    draw, as physical shadowing is reciprocal, and a link keeps its draw for
    the whole run.

    Offsets are clamped to ``±SHADOWING_CLAMP_SIGMAS * sigma_db``.  The
    clamp bounds the reach: ``max_range_m`` can promise that no link's loss
    is ever more than that margin below the distance loss, so the spatial
    index may prune receivers beyond the widened cutoff without ever
    excluding one that could hear a frame.  At 6σ a Gaussian draw lands in
    the clamped tail with probability ~2e-9, so the truncation is
    unobservable in practice, but the guarantee it buys is absolute, which
    is what the byte-determinism contract needs.
    """

    __slots__ = ("sigma_db", "_streams", "_offsets")

    def __init__(self, streams: RandomStreams, shadowing_sigma_db: float = 0.0) -> None:
        if (isinstance(shadowing_sigma_db, bool)
                or not isinstance(shadowing_sigma_db, (int, float))
                or not 0.0 <= shadowing_sigma_db < math.inf):
            raise ConfigurationError(
                "shadowing_sigma_db must be a finite, non-negative number of dB, "
                f"got {shadowing_sigma_db!r}")
        self.sigma_db = shadowing_sigma_db
        self._streams = streams.fork("propagation.shadowing")
        self._offsets: Dict[Tuple[str, str], float] = {}

    def path_loss_db(self, tx_position: Position, rx_position: Position) -> float:
        """Distance loss in dB between two positions (no shadowing)."""
        distance = max(distance_between(tx_position, rx_position), MIN_DISTANCE_M)
        return REFERENCE_LOSS_DB + 10.0 * PATH_LOSS_EXPONENT * math.log10(distance)

    def shadowing_db(self, tx_name: str, rx_name: str) -> float:
        """The link's shadowing offset in dB, drawn on first use."""
        link = (rx_name, tx_name) if rx_name < tx_name else (tx_name, rx_name)
        offsets = self._offsets
        if link not in offsets:
            # The label, "#epoch0" included, seeds the draw: keep it as is.
            # The link draws once, so its generator is not kept.
            stream = self._streams.fresh_stream(f"link.{link[0]}|{link[1]}#epoch0")
            bound = SHADOWING_CLAMP_SIGMAS * self.sigma_db
            draw = stream.gauss(0.0, self.sigma_db)
            offsets[link] = min(max(draw, -bound), bound)
        return offsets[link]

    def max_range_m(self, budget_db: float) -> float:
        """Distance beyond which every link's loss exceeds ``budget_db``.

        A link's loss is at least the distance loss minus the clamp margin,
        and the distance loss increases monotonically with distance, so
        inverting it at the widened budget gives a conservative cutoff;
        below the clamp distance the loss is constant, so a budget under
        that floor reaches nobody.
        """
        budget_db = budget_db + SHADOWING_CLAMP_SIGMAS * self.sigma_db
        if budget_db < self.path_loss_db((0.0, 0.0), (0.0, 0.0)):
            return 0.0
        exponent = (budget_db - REFERENCE_LOSS_DB) / (10.0 * PATH_LOSS_EXPONENT)
        return max(10.0 ** exponent, MIN_DISTANCE_M)
