"""Radio propagation (path loss) models.

The experiments in the paper run at a fixed 25 dB SNR indoors with stationary
nodes, so the seed models capture large-scale path loss only; small-scale
effects enter the reproduction through the PHY error model (noise term +
channel-estimate aging) rather than per-packet fading draws.

For the mobile scenarios (which go beyond the paper's setup),
:class:`LogNormalShadowing` layers a deterministic per-link shadowing offset
on top of any base model so that node motion changes *loss*, not merely
distance.  Models that need link identity implement the extended
:class:`LinkAwarePropagationModel` protocol, which the channel prefers when
present.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Protocol, Tuple

from repro.errors import ConfigurationError
from repro.sim.randomness import RandomStreams

Position = Tuple[float, float]


def distance_between(a: Position, b: Position) -> float:
    """Euclidean distance between two 2-D positions in metres."""
    return math.hypot(a[0] - b[0], a[1] - b[1])


class PropagationModel(Protocol):
    """Computes path loss between two positions."""

    def path_loss_db(self, tx_position: Position, rx_position: Position) -> float:
        """Path loss in dB between transmitter and receiver."""


class LinkAwarePropagationModel(Protocol):
    """A propagation model whose loss depends on *which* link is evaluated.

    The channel calls this extended form (when available) with the endpoint
    identities and the evaluation time, which is what per-link shadowing and
    time-varying channels need; pure-distance models only ever see positions.
    """

    def path_loss_between(self, tx_key: str, rx_key: str, tx_position: Position,
                          rx_position: Position, time: float) -> float:
        """Path loss in dB on the ``tx_key`` → ``rx_key`` link at ``time``."""


class RangeBoundedPropagationModel(Protocol):
    """A propagation model that can bound its own reach.

    ``max_range_m(budget_db)`` answers: beyond what distance is the path loss
    *guaranteed* to exceed ``budget_db``, for every link and at every time?
    The spatial index (:mod:`repro.channel.spatial`) uses this bound to prune
    receivers, so it must be conservative — overestimating the range costs
    performance, underestimating it would change which nodes hear a frame.
    Models that cannot give such a bound simply omit the method and the
    channel falls back to scanning every registered PHY.
    """

    def max_range_m(self, budget_db: float) -> float:
        """Conservative distance beyond which loss always exceeds the budget."""


@dataclass(slots=True)
class FreeSpacePathLoss:
    """Free-space (Friis) path loss.

    ``loss = 20 log10(d) + 20 log10(f) - 147.55`` with ``d`` in metres and
    ``f`` in Hz.
    """

    frequency_hz: float = 2.45e9
    minimum_distance: float = 0.1

    def path_loss_db(self, tx_position: Position, rx_position: Position) -> float:
        distance = max(distance_between(tx_position, rx_position), self.minimum_distance)
        return (
            20.0 * math.log10(distance)
            + 20.0 * math.log10(self.frequency_hz)
            - 147.55
        )

    def max_range_m(self, budget_db: float) -> float:
        """Distance beyond which free-space loss always exceeds ``budget_db``.

        Friis loss is monotonically increasing in distance, so inverting it at
        the budget gives an exact cutoff; below the clamp distance the loss is
        constant, so a budget smaller than that floor reaches nobody.
        """
        floor_db = self.path_loss_db((0.0, 0.0), (0.0, 0.0))
        if budget_db < floor_db:
            return 0.0
        exponent = (budget_db - 20.0 * math.log10(self.frequency_hz) + 147.55) / 20.0
        return max(10.0 ** exponent, self.minimum_distance)


@dataclass(slots=True)
class LogDistancePathLoss:
    """Log-distance path loss: ``PL(d) = PL(d0) + 10 n log10(d / d0)``."""

    reference_loss_db: float = 66.0
    path_loss_exponent: float = 3.0
    reference_distance: float = 1.0
    minimum_distance: float = 0.1

    def __post_init__(self) -> None:
        if self.reference_distance <= 0:
            raise ConfigurationError("reference_distance must be positive")
        if self.path_loss_exponent <= 0:
            raise ConfigurationError("path_loss_exponent must be positive")

    def path_loss_db(self, tx_position: Position, rx_position: Position) -> float:
        distance = max(distance_between(tx_position, rx_position), self.minimum_distance)
        return self.reference_loss_db + 10.0 * self.path_loss_exponent * math.log10(
            distance / self.reference_distance
        )

    def max_range_m(self, budget_db: float) -> float:
        """Distance beyond which log-distance loss always exceeds ``budget_db``.

        The loss is monotonically increasing in distance, so the inversion at
        the budget is exact; below the clamp distance the loss is constant, so
        a budget under that floor reaches nobody.
        """
        floor_db = self.path_loss_db((0.0, 0.0), (0.0, 0.0))
        if budget_db < floor_db:
            return 0.0
        exponent = (budget_db - self.reference_loss_db) / (10.0 * self.path_loss_exponent)
        return max(self.reference_distance * 10.0 ** exponent, self.minimum_distance)


class LogNormalShadowing:
    """Per-link log-normal shadowing on top of a base path-loss model.

    Each (transmitter, receiver) link gets a Gaussian-in-dB offset with
    standard deviation ``sigma_db``, drawn from a stream derived from the
    simulator's root seed and the link's identity — so offsets are
    deterministic per seed, independent of the order in which links are first
    evaluated, and reproducible across processes.  With ``symmetric=True``
    (the default) both directions of a link share one draw, as physical
    shadowing is reciprocal.

    ``coherence_time`` makes the channel time-varying even for stationary
    endpoints: the offset is redrawn once per coherence epoch
    (``floor(t / coherence_time)``), each epoch's draw again coming from its
    own derived stream.  ``None`` keeps one static draw per link.

    The channel binds the model to the simulator's random streams at
    construction (see :class:`~repro.channel.medium.WirelessChannel`); using
    the plain position-only ``path_loss_db`` interface returns the base loss
    without shadowing, because link identity is unknown there.

    Shadowing offsets are clamped to ``±max_sigma_factor * sigma_db``.  The
    truncation makes the model *range-bounded*: ``max_range_m`` can promise
    that no link's loss is ever more than that margin below the base loss, so
    the spatial index may prune receivers beyond the widened cutoff without
    ever excluding one that could hear a frame.  At the default factor of 6
    a Gaussian draw lands in the clamped tail with probability ~2e-9, so the
    truncation is unobservable in practice — but the guarantee it buys is
    absolute, which is what the byte-determinism contract needs.
    """

    __slots__ = ("base", "sigma_db", "coherence_time", "symmetric",
                 "max_sigma_factor", "_streams", "_offsets")

    def __init__(self, base: Optional[PropagationModel] = None, sigma_db: float = 6.0,
                 coherence_time: Optional[float] = None, symmetric: bool = True,
                 max_sigma_factor: float = 6.0) -> None:
        if sigma_db < 0:
            raise ConfigurationError("sigma_db must be non-negative")
        if coherence_time is not None and coherence_time <= 0:
            raise ConfigurationError("coherence_time must be positive")
        if max_sigma_factor <= 0:
            raise ConfigurationError("max_sigma_factor must be positive")
        self.base = base or hydra_indoor_propagation()
        self.sigma_db = sigma_db
        self.coherence_time = coherence_time
        self.symmetric = symmetric
        self.max_sigma_factor = max_sigma_factor
        self._streams: Optional[RandomStreams] = None
        self._offsets: Dict[Tuple[str, str, int], float] = {}

    def bind(self, streams: RandomStreams) -> None:
        """Attach the simulator's random streams (the channel calls this).

        Rebinding (reusing one model instance across simulators) drops the
        cached offsets: draws must come from the *current* simulator's seed,
        never from whatever run happened to evaluate a link first.
        """
        self._streams = streams.fork("propagation.shadowing")
        self._offsets.clear()

    def cache_epoch(self, time: float) -> int:
        """Validity token for the channel's cached delivery plans.

        Within one epoch, ``path_loss_between`` is a pure function of the
        endpoint positions, so the channel may serve a cached plan as long
        as both the epoch and the positions are unchanged.  Each coherence
        rollover yields a new token, forcing a new plan (and a fresh
        shadowing draw).
        """
        if self.coherence_time is None:
            return 0
        return int(time // self.coherence_time)

    def _link_key(self, tx_key: str, rx_key: str) -> Tuple[str, str]:
        if self.symmetric and rx_key < tx_key:
            return (rx_key, tx_key)
        return (tx_key, rx_key)

    def shadowing_db(self, tx_key: str, rx_key: str, time: float = 0.0) -> float:
        """The (cached) shadowing offset for one link at ``time``."""
        if self._streams is None:
            raise ConfigurationError(
                "LogNormalShadowing is not bound to a simulator; pass it to a "
                "WirelessChannel (or call bind()) before evaluating links")
        if self.sigma_db == 0.0:
            return 0.0
        epoch = 0 if self.coherence_time is None else int(time // self.coherence_time)
        a, b = self._link_key(tx_key, rx_key)
        cache_key = (a, b, epoch)
        if cache_key not in self._offsets:
            stream = self._streams.stream(f"link.{a}|{b}#epoch{epoch}")
            bound = self.max_sigma_factor * self.sigma_db
            draw = stream.gauss(0.0, self.sigma_db)
            self._offsets[cache_key] = min(max(draw, -bound), bound)
        return self._offsets[cache_key]

    def path_loss_between(self, tx_key: str, rx_key: str, tx_position: Position,
                          rx_position: Position, time: float) -> float:
        """Base loss plus the link's shadowing offset."""
        return (self.base.path_loss_db(tx_position, rx_position)
                + self.shadowing_db(tx_key, rx_key, time))

    def path_loss_db(self, tx_position: Position, rx_position: Position) -> float:
        """Position-only fallback: base loss without shadowing."""
        return self.base.path_loss_db(tx_position, rx_position)

    def max_range_m(self, budget_db: float) -> Optional[float]:
        """Conservative reach bound: the base model's, widened by the clamp.

        A link's loss is at least ``base - max_sigma_factor * sigma`` (draws
        are clamped, see the class docstring), so extending the budget by that
        margin before asking the base model yields a distance beyond which
        *no* shadowing draw can bring a frame above the detect floor.  Returns
        ``None`` when the base model cannot bound its own range.
        """
        base_bound = getattr(self.base, "max_range_m", None)
        if base_bound is None:
            return None
        return base_bound(budget_db + self.max_sigma_factor * self.sigma_db)


def hydra_indoor_propagation() -> LogDistancePathLoss:
    """Propagation constants for the paper's indoor testbed.

    With the Hydra transmit power of 7.7 mW (~8.9 dBm), a 1 MHz noise floor of
    about -94 dBm and nodes spaced ~2.5 m apart, these constants yield close
    to the 25 dB SNR the authors report (Section 5), while keeping every node
    in every other node's carrier-sense range.
    """
    return LogDistancePathLoss(reference_loss_db=66.0, path_loss_exponent=3.0)
