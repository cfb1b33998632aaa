"""The shared wireless medium.

:class:`WirelessChannel` connects every :class:`~repro.phy.device.Phy` in a
scenario.  When a PHY transmits, the channel computes the received power at
every other PHY from the propagation model and delivers *begin-reception* and
*end-reception* events after the (negligible but modelled) propagation delay.
Collision and capture decisions are the receiving PHY's job; the channel only
reports who hears what, and how loudly.

Positions are **time-varying**: link budgets ask each PHY for
``position_at(now)`` — the exact analytic position under its mobility model,
evaluated at transmission start — instead of reading a cached static
coordinate.  For stationary PHYs (the paper's entire evaluation) this
degenerates to the static position, bit for bit.  A link's loss is the
channel's :class:`~repro.channel.propagation.IndoorPropagation` distance
loss, plus the link's shadowing offset when the channel was built with
``shadowing_sigma_db > 0``.

What one broadcast schedules is a **delivery plan**: ``(considered, culled,
deliveries)``, where each delivery is ``(receiver, rx_power_dbm, delay_s)``
in candidate (registration) order and the counts feed the channel's
statistics.  Building a plan reads the sender's position once, then for
each candidate its position and loss, culls it below the detect floor, and
keeps distance / c as the delay.  A plan is a pure function of the
registered PHYs and their positions (a link's shadowing offset never
changes), so while no registered PHY was built with a mobility model (of
any class, one that never moves included) the channel caches one plan per
sender.  While any registered PHY carries a model, each broadcast builds a
fresh plan and keeps nothing.  Either way the pushes, their order and every
float are the ones a fresh evaluation gives, so caching changes when the
math runs, never which numbers come out
(``tests/integration/test_perf_determinism.py`` compares cached plans with
per-broadcast ones).

Membership is fixed as the scenario is built: a PHY registers once, from
its constructor, and never leaves, and it moves only by the model it was
built with.  :meth:`WirelessChannel.register` is therefore the only event
that can change a cached plan, and it drops them all.  A PHY's one identity
on the medium is ``phy.channel_index``, its place in registration order,
so ordering candidates by index is ordering them by registration.

Every PHY transmits at :data:`~repro.phy.device.TX_POWER_DBM` and ignores
arrivals below :data:`~repro.phy.device.DETECT_FLOOR_DBM`, so a channel has
one reach: the propagation's conservative ``max_range_m`` for that budget,
computed once at construction.  Candidate enumeration scales past tens of
nodes on its own: up to :data:`AUTO_SPATIAL_THRESHOLD` registered PHYs, a
plan budgets every PHY (the exhaustive scan, O(N)); above it, while no
registered PHY carries a model, the channel asks a
:class:`~repro.channel.spatial.UniformGridIndex` for the PHYs within the
reach (O(neighbours)).  The grid follows the plans' rule: it is built from
the registered PHYs on the first plan that wants it and dropped by
:meth:`WirelessChannel.register`, and a channel holding a PHY with a model
scans at every size.  Both paths cull deliveries below the detect floor
before scheduling them, so the scheduled event set (and therefore every
byte of a run) is identical on either side of the threshold;
``tests/integration/test_spatial_determinism.py`` is the differential
proof.

Deliveries are fire-and-forget: the channel keeps no handle to the
begin/end-reception events it schedules and no record of the frame beyond
them — each receiver is handed the :class:`~repro.phy.frame.PhyFrame`
itself — so a frame and its packets are freed once the last receiver has
processed them.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional

from repro.channel.propagation import IndoorPropagation, distance_between
from repro.channel.spatial import UniformGridIndex
from repro.errors import ConfigurationError
from repro.phy.device import DETECT_FLOOR_DBM, TX_POWER_DBM
from repro.phy.frame import PhyFrame
from repro.sim.simulator import Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.phy.device import Phy

#: Speed of light in metres per second (propagation delay).
SPEED_OF_LIGHT = 299_792_458.0

#: The channel keeps the exhaustive scan at or below this many registered
#: PHYs and switches to the grid index above it while none of them carries
#: a mobility model.  Crossing the threshold
#: never changes bytes — both enumerations schedule the identical event set
#: (see ``_plan``) — so the constant is a pure speed choice; it sits far
#: above every paper scenario (≤ 21 nodes) to keep those runs on the exact
#: code path the committed expectations were produced with.  Read whenever
#: a plan is built, so tests force either side by patching it before the
#: first send.
AUTO_SPATIAL_THRESHOLD = 64


class WirelessChannel:
    """Single shared broadcast medium connecting all registered PHYs.

    ``shadowing_sigma_db`` is the standard deviation of the per-link
    log-normal shadowing (see :mod:`repro.channel.propagation`); the
    default 0 leaves the paper's indoor distance loss alone.
    """

    __slots__ = ("sim", "propagation", "_phys", "_mobile",
                 "_plans", "_reach", "_spatial",
                 "total_transmissions", "total_airtime", "total_candidates",
                 "total_deliveries", "total_culled")

    def __init__(self, sim: Simulator, shadowing_sigma_db: float = 0.0) -> None:
        self.sim = sim
        # Raises on a sigma that is not a finite, non-negative number,
        # before anything registers or draws.
        self.propagation = IndoorPropagation(sim.random, shadowing_sigma_db)
        # Registered PHYs in registration order; phy.channel_index is a
        # PHY's place in this list.
        self._phys: List["Phy"] = []
        # Set once a PHY carrying a mobility model registers (PHYs never
        # leave); plans and the grid are kept only while it is False.
        self._mobile = False
        # Sender index -> (considered, culled, deliveries).
        self._plans: Dict[int, tuple] = {}
        # Farthest distance at which any frame can be detected.
        self._reach = self.propagation.max_range_m(TX_POWER_DBM - DETECT_FLOOR_DBM)
        # Spatial candidate pruning: the grid index is built on the first
        # plan that wants it, from the PHYs registered by then.
        self._spatial: Optional[UniformGridIndex] = None
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
        """Attach one of this channel's PHYs to the medium for good (idempotent).

        ``phy.channel_index`` becomes its place in registration order.  The
        newcomer can change who hears whom, so every cached plan and the
        grid are dropped; this is the only place either is dropped.
        """
        if phy.channel is not self:
            raise ConfigurationError(f"{phy.name} belongs to another channel")
        if phy.channel_index is not None:
            return
        phy.channel_index = len(self._phys)
        self._phys.append(phy)
        if phy.mobility is not None:
            self._mobile = True
        self._plans.clear()
        self._spatial = None

    @property
    def phys(self) -> List["Phy"]:
        """All registered PHYs, in registration order."""
        return list(self._phys)

    # ------------------------------------------------------------------
    # Link budgets
    # ------------------------------------------------------------------
    def received_power_dbm(self, sender: "Phy", receiver: "Phy",
                           time: Optional[float] = None) -> float:
        """Received power at ``receiver`` for a transmission by ``sender``.

        Evaluated against exact positions at ``time`` (default: now, i.e. the
        start of the transmission being budgeted).
        """
        when = self.sim.now if time is None else time
        propagation = self.propagation
        loss = propagation.path_loss_db(sender.position_at(when), receiver.position_at(when))
        if propagation.sigma_db > 0.0:
            loss += propagation.shadowing_db(sender.name, receiver.name)
        return TX_POWER_DBM - loss

    # ------------------------------------------------------------------
    # Broadcast
    # ------------------------------------------------------------------
    def broadcast(self, sender: "Phy", frame: PhyFrame, duration: float) -> None:
        """Deliver ``frame`` from ``sender`` to every other registered PHY.

        Each receiver gets ``begin_reception(frame, rx_power_dbm)`` and
        ``end_reception(frame)``.  Raises before counting or scheduling
        anything if ``sender`` belongs to another channel or ``duration`` is
        not a positive, finite number of seconds.
        """
        if sender.channel is not self:
            raise ConfigurationError(f"{sender.name} belongs to another channel")
        if not 0.0 < duration < math.inf:
            raise ConfigurationError(
                f"transmission duration must be positive and finite, got {duration}")
        sim = self.sim
        now = sim._now
        self.total_transmissions += 1
        self.total_airtime += duration
        if self._mobile:
            plan = self._plan(sender, now)
        else:
            plan = self._plans.get(sender.channel_index)
            if plan is None:
                plan = self._plans[sender.channel_index] = self._plan(sender, now)

        # Direct scheduler pushes: this loop schedules two events per
        # receiver per frame, and the Simulator.schedule wrapper (which only
        # adds a negative-delay check — delays here are >= 0 by construction)
        # was a measurable slice of the event budget.  The returned handles
        # are dropped on purpose (see the module docstring).
        push = sim._scheduler.push
        priority = Simulator.PRIORITY_PHY
        end_args = (frame,)
        for receiver, rx_power, delay in plan[2]:
            push(now + delay, receiver.begin_reception, (frame, rx_power), priority)
            push(now + delay + duration, receiver.end_reception, end_args, priority)
        self.total_candidates += plan[0]
        self.total_culled += plan[1]
        self.total_deliveries += plan[0] - plan[1]

    def _plan(self, sender: "Phy", now: float) -> tuple:
        """``(considered, culled, deliveries)`` for a send by ``sender`` at ``now``.

        Candidates are either the full registration list or, above the
        threshold on a channel without models, the grid index's superset of
        in-range PHYs (also in registration order).  The two enumerations
        give the *identical* deliveries, because every receiver the grid
        prunes is provably below the detect floor and the loop below culls
        exactly those receivers on both paths — so the threshold changes
        speed, never bytes.
        """
        tx_position = sender.position_at(now)
        receivers: Iterable["Phy"] = self._phys
        if not self._mobile and len(self._phys) > AUTO_SPATIAL_THRESHOLD:
            receivers = self._ensure_spatial().candidates(tx_position, self._reach)
        propagation = self.propagation
        path_loss_db = propagation.path_loss_db
        shadowing_db = propagation.shadowing_db if propagation.sigma_db > 0.0 else None
        tx_name = sender.name
        # (receiver, rx_power_dbm, delay_s), in candidate order.
        deliveries: List[tuple] = []
        considered = 0
        culled = 0
        for receiver in receivers:
            if receiver is sender:
                continue
            considered += 1
            # received_power_dbm's budget, inline: on a channel with a mobile
            # PHY this runs for every candidate of every broadcast.
            rx_position = receiver.position_at(now)
            loss = path_loss_db(tx_position, rx_position)
            if shadowing_db is not None:
                loss += shadowing_db(tx_name, receiver.name)
            rx_power = TX_POWER_DBM - loss
            if rx_power < DETECT_FLOOR_DBM:
                # Below the detect floor the frame would have no observable
                # effect (Phy.begin_reception ignores it), so the two events
                # are never scheduled.  Applied uniformly on the scan and
                # grid paths — this cull, not the index, is what defines who
                # hears a frame.
                culled += 1
                continue
            delay = distance_between(tx_position, rx_position) / SPEED_OF_LIGHT
            deliveries.append((receiver, rx_power, delay))
        return (considered, culled, deliveries)

    def _ensure_spatial(self) -> UniformGridIndex:
        """The grid index over the registered PHYs, built on first use.

        The cell size is the reach (so a query scans at most a 3×3 block of
        cells); correctness is independent of the choice because
        ``candidates`` derives the cell span from the exact query radius.
        """
        spatial = self._spatial
        if spatial is None:
            spatial = self._spatial = UniformGridIndex(max(self._reach, 1.0), self._phys)
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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<WirelessChannel phys={len(self._phys)}>"
