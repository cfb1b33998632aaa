"""Property and lifecycle tests for the uniform-grid spatial index.

The grid's one load-bearing promise: its candidate list is a **superset** of
every registered PHY that could detect a frame — at any cell size, for any
placement, stationary or mid-flight, with or without shadowing.  The
differential suite (``tests/integration/test_spatial_determinism.py``) shows
whole runs agree; this file attacks the promise directly on random
placements, querying a :class:`UniformGridIndex` built at each cell size
with the channel's own pruning radius.  It also pins the lifecycle
invariants of the index the channel builds for itself, at its default cell
size (purge on unregister, re-bucketing on moves, no inheritance across
re-registration).
"""

from __future__ import annotations

import random

import pytest

from helpers.routing import connected_placement

from repro.channel.medium import WirelessChannel
from repro.channel.propagation import LogNormalShadowing
from repro.channel.spatial import UniformGridIndex
from repro.errors import ConfigurationError
from repro.phy.device import Phy, PhyConfig
from repro.sim.simulator import Simulator
from repro.topology.city import city_positions

TX_POWER_DBM = PhyConfig().tx_power_dbm
DETECT_FLOOR_DBM = PhyConfig().detect_floor_dbm

#: Cell sizes spanning much-smaller-than-range through much-larger (the
#: superset property must be independent of the cell size).
CELL_SIZES_M = (2.0, 7.0, 14.6, 40.0)


def _build(sim, positions, propagation=None):
    channel = WirelessChannel(sim, propagation=propagation)
    phys = [Phy(sim, channel, position=position, name=f"phy{i + 1}")
            for i, position in enumerate(positions)]
    return channel, phys


def _grid(phys, cell, now=0.0):
    """A grid index of ``cell``-metre cells over ``phys``, in their order."""
    spatial = UniformGridIndex(cell)
    for phy in phys:
        spatial.register(phy, now)
    return spatial


def _detectable_receivers(channel, sender, phys, now):
    """Brute force: every PHY whose exact received power clears its floor."""
    receivers = []
    for phy in phys:
        if phy is sender:
            continue
        power = channel.received_power_dbm(sender, phy, TX_POWER_DBM, time=now)
        if power >= phy.config.detect_floor_dbm:
            receivers.append(phy)
    return receivers


def _assert_superset_and_ordered(channel, spatial, phys, now):
    reach = channel._max_range_for(TX_POWER_DBM)
    assert reach is not None
    order = {id(phy): i for i, phy in enumerate(phys)}
    for sender in phys:
        candidates = spatial.candidates(sender.position_at(now), reach, now)
        candidate_ids = {id(phy) for phy in candidates}
        for receiver in _detectable_receivers(channel, sender, phys, now):
            assert id(receiver) in candidate_ids, (
                f"{receiver.name} can detect {sender.name} but the grid "
                f"pruned it (cell={spatial.cell_size_m})")
        ranks = [order[id(phy)] for phy in candidates]
        assert ranks == sorted(ranks), "candidates not in registration order"


# ---------------------------------------------------------------------------
# Superset property
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def connected_layouts():
    """Six connected 8-node layouts, shared by every cell size.

    Rejection sampling makes each layout expensive, and the layouts do not
    depend on the cell size, so they are drawn once per module.
    """
    return [connected_placement(random.Random(1000 + trial), 8, 24.0)
            for trial in range(6)]


@pytest.mark.parametrize("cell", CELL_SIZES_M)
def test_superset_on_random_connected_placements(cell, connected_layouts):
    for trial, positions in enumerate(connected_layouts):
        sim = Simulator(seed=trial + 1)
        channel, phys = _build(sim, positions)
        _assert_superset_and_ordered(channel, _grid(phys, cell), phys, now=0.0)


@pytest.mark.parametrize("cell", (3.0, 14.6))
def test_superset_on_cluster_placements(cell):
    # Cluster cities are dense in spots and empty elsewhere — the worst case
    # for any index that assumed uniform occupancy.  Connectivity is
    # irrelevant to the property, so disconnected layouts are kept.
    for trial in range(4):
        rng = random.Random(2000 + trial)
        positions = city_positions(40, spacing_m=8.0, placement="clusters",
                                   cluster_count=4, cluster_sigma_m=10.0,
                                   rng=rng)
        sim = Simulator(seed=trial + 1)
        channel, phys = _build(sim, positions)
        _assert_superset_and_ordered(channel, _grid(phys, cell), phys, now=0.0)


def test_superset_under_shadowing_draws():
    # Shadowing can *lower* a link's loss by up to max_sigma_factor * sigma;
    # the index widens its cutoff by exactly that margin (draws are clamped),
    # so even the luckiest draw cannot make a pruned receiver detectable.
    for trial in range(4):
        rng = random.Random(3000 + trial)
        positions = [(rng.uniform(0.0, 120.0), rng.uniform(0.0, 120.0))
                     for _ in range(14)]
        sim = Simulator(seed=trial + 1)
        channel, phys = _build(
            sim, positions,
            propagation=LogNormalShadowing(sigma_db=6.0, coherence_time=0.5))
        spatial = _grid(phys, 10.0)
        # Evaluate at a few coherence epochs: each rolls fresh draws.
        for now in (0.0, 0.7, 1.3):
            _assert_superset_and_ordered(channel, spatial, phys, now=now)


class _Glide:
    """Minimal analytic mobility: constant velocity, no update events.

    Never copies its position into ``phy.position``, so the *only* way the
    index can see this PHY's motion is per-query revalidation against
    ``position_at(now)`` — exactly the code path under test.
    """

    def __init__(self, velocity):
        self.velocity = velocity
        self.origin = None
        self.phy = None

    def attach(self, phy):
        self.phy = phy
        self.origin = phy.position

    def start(self, stop_time=None):
        pass

    def position_at(self, time):
        return (self.origin[0] + self.velocity[0] * time,
                self.origin[1] + self.velocity[1] * time)


def test_superset_mid_flight_without_snapshot_updates():
    for trial in range(4):
        rng = random.Random(4000 + trial)
        positions = connected_placement(rng, 6, 20.0)
        sim = Simulator(seed=trial + 1)
        channel, phys = _build(sim, positions)
        for i, phy in enumerate(phys):
            if i % 2 == 1:
                phy.set_mobility(_Glide((rng.uniform(-4.0, 4.0),
                                         rng.uniform(-4.0, 4.0))))
        spatial = _grid(phys, 5.0)
        # Queries strictly after several cell-widths of travel: stale cells
        # everywhere unless revalidation works.
        for now in (0.0, 3.5, 9.25):
            _assert_superset_and_ordered(channel, spatial, phys, now=now)


# ---------------------------------------------------------------------------
# Lifecycle
# ---------------------------------------------------------------------------

def test_move_across_cells_then_unregister_leaves_nothing_behind():
    sim = Simulator(seed=1)
    channel, (anchor, mover) = _build(sim, [(0.0, 0.0), (3.0, 3.0)])
    spatial = channel._ensure_spatial()
    assert spatial.stored_cell_of(mover) == (0, 0)
    # Static position reassignment must re-bucket through the setter hook;
    # the move spans two cells at the default (max-range) cell size.
    mover.position = (32.0, 37.0)
    assert spatial.stored_cell_of(mover) == spatial.cell_for((32.0, 37.0))
    assert spatial.stored_cell_of(mover) == (2, 2)
    spatial.audit()

    channel.unregister(mover)
    assert mover not in spatial
    assert spatial.stored_cell_of(mover) is None
    assert len(spatial) == 1
    spatial.audit()


def test_mobile_entry_unregisters_cleanly_mid_flight():
    sim = Simulator(seed=2)
    channel, (anchor, rover) = _build(sim, [(0.0, 0.0), (2.0, 2.0)])
    rover.set_mobility(_Glide((6.0, 0.0)))
    spatial = channel._ensure_spatial()
    assert spatial.mobile_count == 1
    assert spatial.stored_cell_of(rover) == (0, 0)
    # A query at t=5 revalidates and re-buckets the rover two cells away.
    spatial.candidates((0.0, 0.0), 1.0, 5.0)
    assert spatial.stored_cell_of(rover) == spatial.cell_for((32.0, 2.0))
    assert spatial.stored_cell_of(rover) == (2, 0)
    channel.unregister(rover)
    assert spatial.mobile_count == 0
    assert rover not in spatial
    spatial.audit()


def test_reregistration_never_inherits_a_departed_identity():
    """No PHY registering after another left is served its memo rows or cell.

    The departed PHY's memo rows are poisoned while they still record it at
    ``here``, and the grid files it at ``there``, in another cell.  A
    newcomer and the departed PHY itself, re-registered, then both stand at
    ``here``, where only the registration index keeps those rows from being
    served.
    """
    sim = Simulator(seed=3)
    here, there = (23.0, 23.0), (3.0, 40.0)
    channel, (anchor, ghost) = _build(sim, [(0.0, 0.0), here])
    spatial = channel._ensure_spatial()
    honest = (channel.received_power_dbm(ghost, anchor, TX_POWER_DBM),
              channel.received_power_dbm(anchor, ghost, TX_POWER_DBM))
    departed = ghost.channel_index
    cache = channel._budget_cache
    stale = [key for key in cache if departed in key]
    assert len(stale) == 2
    for key in stale:
        epoch, tx_position, rx_position, _, distance = cache[key]
        cache[key] = (epoch, tx_position, rx_position, -1000.0, distance)
    ghost.position = there
    assert spatial.stored_cell_of(ghost) == spatial.cell_for(there)
    assert spatial.cell_for(there) != spatial.cell_for(here)

    channel.unregister(ghost)
    ghost.position = here
    fresh = Phy(sim, channel, position=here, name="fresh")
    channel.register(ghost)

    assert departed not in (fresh.channel_index, ghost.channel_index)
    for phy in (fresh, ghost):
        assert (channel.received_power_dbm(phy, anchor, TX_POWER_DBM),
                channel.received_power_dbm(anchor, phy, TX_POWER_DBM)) == honest
        assert spatial.stored_cell_of(phy) == spatial.cell_for(here)
    # The re-registered PHY is last in candidate order on both paths.
    assert channel.phys == [anchor, fresh, ghost]
    assert spatial.candidates(anchor.position, 100.0, sim.now) == [anchor, fresh, ghost]
    assert len(spatial) == 3
    spatial.audit()


def test_unregister_is_idempotent_and_audit_stays_clean():
    sim = Simulator(seed=4)
    channel, phys = _build(sim, [(0.0, 0.0), (6.0, 0.0), (0.0, 6.0)])
    spatial = channel._ensure_spatial()
    channel.unregister(phys[1])
    channel.unregister(phys[1])
    spatial.unregister(phys[1])
    assert len(spatial) == 2
    spatial.audit()


def test_cell_size_must_be_positive_and_finite():
    with pytest.raises(ConfigurationError):
        UniformGridIndex(0.0)
    with pytest.raises(ConfigurationError):
        UniformGridIndex(-3.0)
    with pytest.raises(ConfigurationError):
        UniformGridIndex(float("inf"))
