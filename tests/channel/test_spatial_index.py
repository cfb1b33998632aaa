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

import itertools
import math
import random

import pytest

from helpers.routing import connected_placement

from repro.channel.medium import WirelessChannel
from repro.channel.spatial import UniformGridIndex
from repro.errors import ConfigurationError
from repro.phy.device import DETECT_FLOOR_DBM, Phy
from repro.phy.frame import PhyFrame
from repro.phy.rates import HYDRA_BASE_RATE
from repro.sim.simulator import Simulator
from repro.topology.city import city_positions

#: Cell sizes spanning much-smaller-than-range through much-larger (the
#: superset property must be independent of the cell size).
CELL_SIZES_M = (2.0, 7.0, 14.6, 40.0)


def _build(sim, positions, shadowing_sigma_db=0.0, models=None):
    """A channel and one PHY per position; ``models[i]``, if given, moves PHY i."""
    channel = WirelessChannel(sim, shadowing_sigma_db)
    models = models or [None] * len(positions)
    phys = [Phy(sim, channel, position=position, name=f"phy{i + 1}", mobility=model)
            for i, (position, model) in enumerate(zip(positions, models))]
    return channel, phys


def _grid(phys, cell, now=0.0):
    """A grid index of ``cell``-metre cells over ``phys``, in their order."""
    spatial = UniformGridIndex(cell)
    for phy in phys:
        spatial.register(phy, now)
    return spatial


def _detectable_receivers(channel, sender, phys, now):
    """Brute force: every PHY whose exact received power clears the floor."""
    receivers = []
    for phy in phys:
        if phy is sender:
            continue
        if channel.received_power_dbm(sender, phy, time=now) >= DETECT_FLOOR_DBM:
            receivers.append(phy)
    return receivers


def _assert_superset_and_ordered(channel, spatial, phys, now):
    reach = channel._reach
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

def _uniform_layout(rng, node_count=8, side_m=24.0):
    """``node_count`` positions drawn uniformly in a ``side_m`` square.

    Connectivity is irrelevant to the property, so, unlike the routing
    harness's placements, nothing is rejected.
    """
    return [(rng.uniform(0.0, side_m), rng.uniform(0.0, side_m))
            for _ in range(node_count)]


@pytest.mark.parametrize("cell", CELL_SIZES_M)
def test_superset_on_random_placements(cell):
    for trial in range(6):
        positions = _uniform_layout(random.Random(1000 + trial))
        sim = Simulator(seed=trial + 1)
        channel, phys = _build(sim, positions)
        # Pairs on both sides of the pruning radius, so the check can pass
        # neither by every receiver being in reach nor by none being.
        reach = channel._reach
        distances = [math.dist(a, b) for a, b in itertools.combinations(positions, 2)]
        assert min(distances) < reach < max(distances)
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
    # Shadowing can *lower* a link's loss by up to SHADOWING_CLAMP_SIGMAS *
    # sigma; the index widens its cutoff by exactly that margin (draws are
    # clamped), so even the luckiest draw cannot make a pruned receiver
    # detectable.  Each trial is a fresh seed, so a fresh draw per link.
    for trial in range(12):
        rng = random.Random(3000 + trial)
        positions = _uniform_layout(rng, node_count=40, side_m=400.0)
        sim = Simulator(seed=trial + 1)
        channel, phys = _build(sim, positions, shadowing_sigma_db=6.0)
        # The widened radius still prunes: pairs on both sides of it.
        distances = [math.dist(a, b) for a, b in itertools.combinations(positions, 2)]
        assert min(distances) < channel._reach < max(distances)
        _assert_superset_and_ordered(channel, _grid(phys, 10.0), phys, now=0.0)


class _Glide:
    """Minimal analytic mobility: constant velocity from where it is bound.

    Nothing tells the index that this PHY moves, so the *only* way the
    index can see its motion is per-query revalidation against
    ``position_at(now)`` — exactly the code path under test.
    """

    def __init__(self, velocity):
        self.velocity = velocity
        self.origin = None

    def bind(self, rng, initial_position, start_time=0.0):
        self.origin = initial_position

    def position_at(self, time):
        return (self.origin[0] + self.velocity[0] * time,
                self.origin[1] + self.velocity[1] * time)


def test_superset_mid_flight_without_snapshot_updates():
    for trial in range(4):
        rng = random.Random(4000 + trial)
        positions = connected_placement(rng, 6, 20.0)
        models = [_Glide((rng.uniform(-4.0, 4.0), rng.uniform(-4.0, 4.0)))
                  if i % 2 == 1 else None for i in range(len(positions))]
        sim = Simulator(seed=trial + 1)
        channel, phys = _build(sim, positions, models=models)
        spatial = _grid(phys, 5.0)
        # Queries strictly after several cell-widths of travel: stale cells
        # everywhere unless revalidation works.
        for now in (0.0, 3.5, 9.25):
            _assert_superset_and_ordered(channel, spatial, phys, now=now)


# ---------------------------------------------------------------------------
# Lifecycle
# ---------------------------------------------------------------------------

def _filed_at(spatial, point, now=0.0):
    """The PHYs the grid files in the one cell holding ``point``."""
    return spatial.candidates(point, 0.0, now)


def test_move_across_cells_then_unregister_leaves_nothing_behind():
    sim = Simulator(seed=1)
    channel, (anchor, mover) = _build(sim, [(0.0, 0.0), (3.0, 3.0)])
    spatial = channel._ensure_spatial()
    assert _filed_at(spatial, (3.0, 3.0)) == [anchor, mover]
    # Static position reassignment must re-bucket through the setter hook;
    # the move spans two cells at the default (max-range) cell size.
    mover.position = (32.0, 37.0)
    assert spatial.cell_for((32.0, 37.0)) == (2, 2)
    assert _filed_at(spatial, (32.0, 37.0)) == [mover]
    assert _filed_at(spatial, (3.0, 3.0)) == [anchor]
    spatial.audit()

    channel.unregister(mover)
    assert mover not in spatial
    assert _filed_at(spatial, (32.0, 37.0)) == []
    assert len(spatial) == 1
    spatial.audit()


def test_mobile_entry_unregisters_cleanly_mid_flight():
    sim = Simulator(seed=2)
    channel, (anchor, rover) = _build(sim, [(0.0, 0.0), (2.0, 2.0)],
                                      models=[None, _Glide((6.0, 0.0))])
    spatial = channel._ensure_spatial()
    assert _filed_at(spatial, (2.0, 2.0)) == [anchor, rover]
    # A query at t=5 revalidates and re-buckets the rover two cells away.
    assert spatial.cell_for((32.0, 2.0)) == (2, 0)
    assert _filed_at(spatial, (32.0, 2.0), 5.0) == [rover]
    assert _filed_at(spatial, (0.0, 0.0), 5.0) == [anchor]
    channel.unregister(rover)
    assert rover not in spatial
    # Gone from the revalidated set too: a later query, when the rover
    # would have glided on again, neither finds nor re-files it.
    assert spatial.candidates((0.0, 0.0), 100.0, 9.0) == [anchor]
    spatial.audit()


class _Subframe:
    size_bytes = 1464


def _planned_powers(channel, sender):
    """``[(receiver, rx_power_dbm)]`` of the plan one send by ``sender`` uses."""
    channel.broadcast(sender, PhyFrame.data([], [_Subframe()], unicast_rate=HYDRA_BASE_RATE),
                      1e-3)
    return [(receiver, power) for receiver, power, _ in channel._plans[sender.channel_index][2]]


def test_reregistration_never_inherits_a_departed_identity():
    """No PHY registering after another left is served its plans or cell.

    While the departed PHY still stands registered at ``there``, in another
    cell than ``here``, the cached plans of both senders are poisoned with
    impossible powers on its link.  A newcomer and the departed PHY itself,
    re-registered, then both stand at ``here``, in range of the anchor, and
    every plan they take part in must carry the honest powers.
    """
    sim = Simulator(seed=3)
    here, there = (5.0, 5.0), (3.0, 40.0)
    channel, (anchor, ghost) = _build(sim, [(0.0, 0.0), here])
    spatial = channel._ensure_spatial()
    honest = (channel.received_power_dbm(ghost, anchor),
              channel.received_power_dbm(anchor, ghost))
    assert min(honest) >= DETECT_FLOOR_DBM
    departed = ghost.channel_index
    ghost.position = there
    assert spatial.cell_for(there) != spatial.cell_for(here)
    assert _filed_at(spatial, there) == [ghost]
    _planned_powers(channel, anchor)
    _planned_powers(channel, ghost)
    channel._plans[departed] = (1, 0, [(anchor, -1000.0, 0.0)])
    channel._plans[anchor.channel_index] = (1, 0, [(ghost, -1000.0, 0.0)])

    channel.unregister(ghost)
    assert channel._plans == {}
    ghost.position = here
    fresh = Phy(sim, channel, position=here, name="fresh")
    channel.register(ghost)

    assert departed not in (fresh.channel_index, ghost.channel_index)
    assert _planned_powers(channel, anchor) == [(fresh, honest[1]), (ghost, honest[1])]
    for phy in (fresh, ghost):
        assert _planned_powers(channel, phy)[0] == (anchor, honest[0])
    assert _filed_at(spatial, here, sim.now) == [anchor, fresh, ghost]
    assert _filed_at(spatial, there, sim.now) == []
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
