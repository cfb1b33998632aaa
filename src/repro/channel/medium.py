"""The shared wireless medium.

:class:`WirelessChannel` connects every :class:`~repro.phy.device.Phy` in a
scenario.  When a PHY transmits, the channel computes the received power at
every other PHY from the propagation model and delivers *begin-reception* and
*end-reception* events after the (negligible but modelled) propagation delay.
Collision and capture decisions are the receiving PHY's job; the channel only
reports who hears what, and how loudly.

Positions are **time-varying**: every link-budget computation asks each PHY
for ``position_at(now)`` — the exact analytic position under its mobility
model, evaluated at transmission start — instead of reading a cached static
coordinate.  For stationary PHYs (the paper's entire evaluation) this
degenerates to the static position, bit for bit.  Link-aware propagation
models (per-link shadowing) are consulted through ``path_loss_between``; see
:mod:`repro.channel.propagation`.

Because the budget of a link is a pure function of (endpoint identities,
endpoint positions, propagation epoch), the channel memoises it per link and
revalidates the cached entry against the exact positions and the model's
``cache_epoch`` on every use: stationary links hit the cache on every frame,
while a link whose endpoint moved (or whose shadowing epoch rolled over)
recomputes — so results are bit-for-bit identical with the memo on or off
(``link_budget_memo=False`` disables it for A/B verification).

Candidate enumeration scales past tens of nodes on its own: up to
:data:`AUTO_SPATIAL_THRESHOLD` registered PHYs the channel budgets every PHY
per frame (the exhaustive scan, O(N)); above it, it asks a
:class:`~repro.channel.spatial.UniformGridIndex` for the PHYs within the
propagation model's conservative ``max_range_m`` cutoff (O(neighbours)).
Both paths cull deliveries below the receiver's detect floor before
scheduling them, so the scheduled event set (and therefore every byte of a
run) is identical on either side of the threshold;
``tests/integration/test_spatial_determinism.py`` is the differential proof.

Deliveries are fire-and-forget: the channel keeps no handle to the
begin/end-reception events it schedules, so a frame, its ``Transmission``
and its packets are freed once the last receiver has processed them.
:meth:`WirelessChannel.unregister` finds a leaving PHY's pending deliveries
by walking the scheduler's queue (:meth:`~repro.sim.scheduler.Scheduler.cancel_where`),
which costs O(queued events) on that rare call instead of a handle list per
receiver on every frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.channel.propagation import PropagationModel, distance_between, hydra_indoor_propagation
from repro.channel.spatial import UniformGridIndex
from repro.errors import ConfigurationError
from repro.phy.frame import PhyFrame
from repro.sim.simulator import Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.phy.device import Phy

#: Speed of light in metres per second (propagation delay).
SPEED_OF_LIGHT = 299_792_458.0

#: The channel keeps the exhaustive scan at or below this many registered
#: PHYs and switches to the grid index above it.  Crossing the threshold
#: never changes bytes — both enumerations schedule the identical event set
#: (see ``broadcast``) — so the constant is a pure speed choice; it sits far
#: above every paper scenario (≤ 21 nodes) to keep those runs on the exact
#: code path the committed expectations were produced with.  Read at every
#: send, so tests force either side by patching it.
AUTO_SPATIAL_THRESHOLD = 64

_UNSET = object()


@dataclass(slots=True)
class Transmission:
    """One frame in flight on the medium."""

    sender: "Phy"
    frame: PhyFrame
    start_time: float
    duration: float
    power_dbm: float

    @property
    def end_time(self) -> float:
        """Simulated time at which the transmission ends."""
        return self.start_time + self.duration


class WirelessChannel:
    """Single shared broadcast medium connecting all registered PHYs."""

    __slots__ = ("sim", "propagation", "noise_floor_dbm",
                 "propagation_delay_enabled", "_phys", "_phy_ids",
                 "_link_aware", "_cache_epoch",
                 "_budget_cache", "_active", "_spatial", "_min_detect_floor",
                 "_max_tx_power", "_max_range_cache", "total_transmissions",
                 "total_airtime", "total_candidates", "total_deliveries",
                 "total_culled")

    def __init__(
        self,
        sim: Simulator,
        propagation: Optional[PropagationModel] = None,
        noise_floor_dbm: float = -94.0,
        propagation_delay_enabled: bool = True,
        link_budget_memo: bool = True,
    ) -> None:
        self.sim = sim
        self.propagation = propagation or hydra_indoor_propagation()
        if hasattr(self.propagation, "bind"):
            # Link-aware models (e.g. LogNormalShadowing) draw per-link
            # offsets from the simulator's seeded streams.
            self.propagation.bind(sim.random)
        self.noise_floor_dbm = noise_floor_dbm
        self.propagation_delay_enabled = propagation_delay_enabled
        self._phys: List["Phy"] = []
        self._phy_ids: set = set()
        self._link_aware = hasattr(self.propagation, "path_loss_between")
        self._cache_epoch = getattr(self.propagation, "cache_epoch", None)
        # (id(sender), id(receiver)) -> (epoch, tx_pos, rx_pos, loss, distance)
        self._budget_cache: Optional[Dict[Tuple[int, int], tuple]] = (
            {} if link_budget_memo else None)
        # One transmission per id for O(1) retirement.
        self._active: Dict[int, Transmission] = {}
        # Spatial candidate pruning: the grid index is built lazily on the
        # first broadcast that wants it (so registration order — which fixes
        # candidate order — is complete by then).
        self._spatial: Optional[UniformGridIndex] = None
        # Running min detect floor / max tx power over every PHY ever
        # registered.  Kept conservative on unregister (a stale low floor or
        # high power only widens the pruning range, never narrows it).
        self._min_detect_floor = math.inf
        self._max_tx_power = -math.inf
        # tx power -> conservative max range (None = model can't bound it).
        self._max_range_cache: Dict[float, Optional[float]] = {}
        # statistics
        self.total_transmissions = 0
        self.total_airtime = 0.0
        self.total_candidates = 0
        self.total_deliveries = 0
        self.total_culled = 0
        sim.metrics.register_collector(self._collect_metrics)

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, phy: "Phy") -> None:
        """Attach a PHY to the medium (idempotent).

        The pruning bounds (min detect floor, max tx power) are snapshots of
        the PHY's config taken here; configure thresholds before registering.
        """
        if id(phy) not in self._phy_ids:
            self._phys.append(phy)
            self._phy_ids.add(id(phy))
            floor = phy.config.detect_floor_dbm
            if floor < self._min_detect_floor:
                self._min_detect_floor = floor
                self._max_range_cache.clear()
            if phy.config.tx_power_dbm > self._max_tx_power:
                self._max_tx_power = phy.config.tx_power_dbm
            if self._spatial is not None:
                self._spatial.register(phy, self.sim.now)

    def unregister(self, phy: "Phy") -> None:
        """Detach a PHY from the medium.

        Deliveries already scheduled for the PHY are cancelled (found by
        walking the scheduler's queue; see the module docstring) and any
        reception it has in progress is aborted, so a detached PHY never
        hears the tail of a frame that was in flight when it left.  Its own
        transmission, if any, still completes.
        """
        phy_id = id(phy)
        if phy_id not in self._phy_ids:
            return
        self._phy_ids.discard(phy_id)
        self._phys.remove(phy)
        begin, end = phy.begin_reception, phy.end_reception
        self.sim._scheduler.cancel_where(
            lambda event: event.callback == begin or event.callback == end)
        if self._budget_cache is not None:
            # id() values can be recycled once the PHY is garbage collected;
            # purge its cache rows so a future PHY can never inherit them.
            stale = [key for key in self._budget_cache if phy_id in key]
            for key in stale:
                del self._budget_cache[key]
        if self._spatial is not None:
            # Purge the grid entry too: a later PHY recycling this one's
            # id() must never inherit its cell.
            self._spatial.unregister(phy)
        phy.abort_receptions()

    def phy_position_changed(self, phy: "Phy") -> None:
        """Hook fired by ``Phy.position``'s setter: re-bucket the PHY.

        No-op for PHYs not (yet) registered — the setter also fires during
        ``Phy.__init__``, before registration.
        """
        if self._spatial is not None and id(phy) in self._phy_ids:
            self._spatial.position_changed(phy)

    def phy_mobility_changed(self, phy: "Phy") -> None:
        """Hook fired by ``Phy.set_mobility``: revalidate this PHY per query."""
        if self._spatial is not None and id(phy) in self._phy_ids:
            self._spatial.mobility_changed(phy)

    @property
    def phys(self) -> List["Phy"]:
        """All PHYs currently attached."""
        return list(self._phys)

    # ------------------------------------------------------------------
    # Link budget helpers
    # ------------------------------------------------------------------
    def _link_budget(self, sender: "Phy", receiver: "Phy", when: float) -> tuple:
        """``(path_loss_db, distance_m)`` for one link at ``when``, memoised.

        The cached entry is validated against the propagation epoch and the
        *exact* endpoint positions, so it can only be served when recomputing
        would produce the identical value: stationary PHYs return the same
        position tuple every time (cheap identity compare), mobile PHYs fail
        the equality check and recompute.
        """
        tx_position = sender.position_at(when)
        rx_position = receiver.position_at(when)
        epoch = 0 if self._cache_epoch is None else self._cache_epoch(when)
        cache = self._budget_cache
        if cache is not None:
            key = (id(sender), id(receiver))
            entry = cache.get(key)
            if (entry is not None and entry[0] == epoch
                    and entry[1] == tx_position and entry[2] == rx_position):
                return entry[3], entry[4]
        if self._link_aware:
            loss = self.propagation.path_loss_between(
                sender.name, receiver.name, tx_position, rx_position, when)
        else:
            loss = self.propagation.path_loss_db(tx_position, rx_position)
        distance = distance_between(tx_position, rx_position)
        if cache is not None:
            cache[key] = (epoch, tx_position, rx_position, loss, distance)
        return loss, distance

    def received_power_dbm(self, sender: "Phy", receiver: "Phy", tx_power_dbm: float,
                           time: Optional[float] = None) -> float:
        """Received power at ``receiver`` for a transmission by ``sender``.

        Evaluated against exact positions at ``time`` (default: now, i.e. the
        start of the transmission being budgeted).
        """
        when = self.sim.now if time is None else time
        loss, _ = self._link_budget(sender, receiver, when)
        return tx_power_dbm - loss

    def link_snr_db(self, sender: "Phy", receiver: "Phy",
                    tx_power_dbm: Optional[float] = None) -> float:
        """Nominal SNR of the ``sender`` → ``receiver`` link (no interference)."""
        power = sender.config.tx_power_dbm if tx_power_dbm is None else tx_power_dbm
        return self.received_power_dbm(sender, receiver, power) - self.noise_floor_dbm

    def propagation_delay(self, sender: "Phy", receiver: "Phy") -> float:
        """One-way propagation delay between two PHYs (at their positions now)."""
        if not self.propagation_delay_enabled:
            return 0.0
        _, distance = self._link_budget(sender, receiver, self.sim.now)
        return distance / SPEED_OF_LIGHT

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------
    def broadcast(self, sender: "Phy", frame: PhyFrame, duration: float,
                  power_dbm: float) -> Transmission:
        """Deliver ``frame`` from ``sender`` to every other registered PHY."""
        if id(sender) not in self._phy_ids:
            raise ConfigurationError("transmitting PHY is not registered with the channel")
        if duration <= 0:
            raise ConfigurationError(f"transmission duration must be positive, got {duration}")
        sim = self.sim
        now = sim.now
        self._prune_active(now)
        transmission = Transmission(
            sender=sender,
            frame=frame,
            start_time=now,
            duration=duration,
            power_dbm=power_dbm,
        )
        self._active[id(transmission)] = transmission
        self.total_transmissions += 1
        self.total_airtime += duration

        # Candidate enumeration: either the full registration list or the
        # grid index's superset of in-range PHYs (also in registration
        # order).  The two enumerations schedule the *identical* event set,
        # because every receiver the grid prunes is provably below its
        # detect floor and the loop below culls exactly those receivers on
        # both paths — so the threshold changes speed, never bytes.
        receivers: List["Phy"] = self._phys
        if len(receivers) > AUTO_SPATIAL_THRESHOLD:
            reach = self._max_range_for(power_dbm)
            if reach is not None:
                spatial = self._ensure_spatial()
                if spatial is not None:
                    receivers = spatial.candidates(
                        sender.position_at(now), reach, now)

        # Direct scheduler pushes: this loop schedules two events per
        # receiver per frame, and the Simulator.schedule wrapper (which only
        # adds a negative-delay check — delays here are >= 0 by construction)
        # was a measurable slice of the event budget.  The returned handles
        # are dropped on purpose (see the module docstring).
        push = sim._scheduler.push
        priority = Simulator.PRIORITY_PHY
        delay_enabled = self.propagation_delay_enabled
        considered = 0
        culled = 0
        for receiver in receivers:
            if receiver is sender:
                continue
            considered += 1
            loss, distance = self._link_budget(sender, receiver, now)
            rx_power = power_dbm - loss
            config = receiver.config
            floor = config.carrier_sense_threshold_dbm
            if config.reception_threshold_dbm < floor:
                floor = config.reception_threshold_dbm
            if rx_power < floor:
                # Below the receiver's detect floor the frame would have no
                # observable effect (Phy.begin_reception ignores it), so the
                # two events are never scheduled.  Applied uniformly on the
                # scan and grid paths — this cull, not the index, is what
                # defines who hears a frame.
                culled += 1
                continue
            delay = distance / SPEED_OF_LIGHT if delay_enabled else 0.0
            push(now + delay, receiver.begin_reception,
                 (transmission, rx_power), priority)
            push(now + delay + duration, receiver.end_reception,
                 (transmission,), priority)
        self.total_candidates += considered
        self.total_culled += culled
        self.total_deliveries += considered - culled
        return transmission

    def _max_range_for(self, power_dbm: float) -> Optional[float]:
        """Conservative pruning radius for a transmission at ``power_dbm``.

        ``None`` when the propagation model cannot bound its own reach — the
        caller then falls back to the exhaustive scan.  Cached per tx power;
        the cache is invalidated whenever a newly registered PHY lowers the
        fleet's min detect floor.
        """
        cache = self._max_range_cache
        value = cache.get(power_dbm, _UNSET)
        if value is _UNSET:
            bound = getattr(self.propagation, "max_range_m", None)
            value = (None if bound is None
                     else bound(power_dbm - self._min_detect_floor))
            cache[power_dbm] = value
        return value

    def _ensure_spatial(self) -> Optional[UniformGridIndex]:
        """Build the grid index on first use (None if the model is unbounded).

        The cell size is the fleet-wide max range (so a query scans at most
        a 3×3 block of cells); correctness is independent of the choice
        because ``candidates`` derives the cell span from the exact query
        radius.  PHYs are inserted in registration order, which fixes
        candidate ordering forever after.
        """
        spatial = self._spatial
        if spatial is None:
            reach = self._max_range_for(self._max_tx_power)
            if reach is None:
                return None
            spatial = UniformGridIndex(max(reach, 1.0))
            now = self.sim.now
            for phy in self._phys:
                spatial.register(phy, now)
            self._spatial = spatial
        return spatial

    def _collect_metrics(self, registry) -> None:
        """Snapshot-time collector: medium-wide totals as gauges."""
        registry.set_gauge("channel.total_transmissions", self.total_transmissions)
        registry.set_gauge("channel.total_airtime_s", self.total_airtime)
        registry.set_gauge("channel.registered_phys", len(self._phys))
        # candidates_considered / (transmissions * registered_phys) is the
        # sub-O(N) proof: with the grid index it collapses to the mean
        # neighbourhood size instead of N.
        registry.set_gauge("channel.candidates_considered", self.total_candidates)
        registry.set_gauge("channel.deliveries_scheduled", self.total_deliveries)
        registry.set_gauge("channel.culled_below_floor", self.total_culled)
        registry.set_gauge(
            "channel.spatial_cells",
            0 if self._spatial is None else self._spatial.cell_count)

    def _prune_active(self, now: float) -> None:
        """Retire transmissions whose airtime has elapsed.

        Retirement is lazy (on access) rather than event-driven: a dedicated
        retire event per frame bought nothing — no protocol state depends on
        it — and cost a full push/pop cycle per transmission.
        """
        active = self._active
        if active:
            expired = [key for key, t in active.items()
                       if t.start_time + t.duration <= now]
            for key in expired:
                del active[key]

    @property
    def active_transmissions(self) -> List[Transmission]:
        """Transmissions currently on the air."""
        self._prune_active(self.sim.now)
        return list(self._active.values())

    @property
    def busy(self) -> bool:
        """True while any transmission is on the air."""
        self._prune_active(self.sim.now)
        return bool(self._active)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<WirelessChannel phys={len(self._phys)} active={len(self._active)}>"
