"""Property and membership tests for the uniform-grid spatial index.

The grid's one load-bearing promise: its candidate list is a **superset** of
every indexed PHY that could detect a frame — at any cell size, for any
placement, with or without shadowing.  The differential suite
(``tests/integration/test_spatial_determinism.py``) shows whole runs agree;
this file attacks the promise directly on random placements, querying a
:class:`UniformGridIndex` built at each cell size with the channel's own
pruning radius.

It also pins the one rule that governs the grid and the cached delivery
plans alike: both exist only while no registered PHY carries a mobility
model, and only a registration drops them.  A channel holding a PHY with a
model never asks the grid, however many PHYs it holds.
"""

from __future__ import annotations

import itertools
import math
import random

import pytest

from helpers.mobility import Fixed, Jumps

from repro.channel import medium
from repro.channel.medium import WirelessChannel
from repro.channel.spatial import UniformGridIndex
from repro.errors import ConfigurationError
from repro.obs.session import observe
from repro.phy.device import DETECT_FLOOR_DBM, Phy
from repro.phy.frame import PhyFrame
from repro.phy.rates import HYDRA_BASE_RATE
from repro.sim.simulator import Simulator
from repro.topology.city import city_positions

#: Cell sizes spanning much-smaller-than-range through much-larger (the
#: superset property must be independent of the cell size).
CELL_SIZES_M = (2.0, 7.0, 14.6, 40.0)

#: 72 static positions 8 m apart: above AUTO_SPATIAL_THRESHOLD, so an
#: all-static channel holding them takes the grid path.
LATTICE = city_positions(72, spacing_m=8.0)


def _build(sim, positions, shadowing_sigma_db=0.0):
    """A channel and one static PHY per position, in position order."""
    channel = WirelessChannel(sim, shadowing_sigma_db)
    phys = [Phy(sim, channel, position=position, name=f"phy{i + 1}")
            for i, position in enumerate(positions)]
    return channel, phys


def _detectable_receivers(channel, sender, phys):
    """Brute force: every PHY whose exact received power clears the floor."""
    return [phy for phy in phys if phy is not sender
            and channel.received_power_dbm(sender, phy) >= DETECT_FLOOR_DBM]


def _assert_superset_and_ordered(channel, spatial, phys):
    reach = channel._reach
    order = {id(phy): i for i, phy in enumerate(phys)}
    for sender in phys:
        candidates = spatial.candidates(sender.position_at(0.0), reach)
        candidate_ids = {id(phy) for phy in candidates}
        for receiver in _detectable_receivers(channel, sender, phys):
            assert id(receiver) in candidate_ids, (
                f"{receiver.name} can detect {sender.name} but the grid "
                f"pruned it (cell={spatial.cell_size_m})")
        ranks = [order[id(phy)] for phy in candidates]
        assert ranks == sorted(ranks), "candidates not in registration order"


# ---------------------------------------------------------------------------
# Superset property
# ---------------------------------------------------------------------------

def _uniform_layout(rng, node_count=8, side_m=24.0, low_m=0.0):
    """``node_count`` positions drawn uniformly in a ``side_m`` square.

    Connectivity is irrelevant to the property, so, unlike the routing
    harness's placements, nothing is rejected.
    """
    return [(rng.uniform(low_m, low_m + side_m), rng.uniform(low_m, low_m + side_m))
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
        _assert_superset_and_ordered(channel, UniformGridIndex(cell, phys), phys)


def test_superset_on_placements_around_the_origin():
    # Both axes cross the layout, so PHYs and query discs straddle the
    # negative cells (-1, ...) and the non-negative ones (0, ...).
    for trial in range(4):
        positions = _uniform_layout(random.Random(1500 + trial), node_count=12,
                                    side_m=40.0, low_m=-20.0)
        assert min(x for x, _ in positions) < 0.0 < max(x for x, _ in positions)
        assert min(y for _, y in positions) < 0.0 < max(y for _, y in positions)
        sim = Simulator(seed=trial + 1)
        channel, phys = _build(sim, positions)
        for cell in CELL_SIZES_M:
            _assert_superset_and_ordered(channel, UniformGridIndex(cell, phys), phys)


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
        _assert_superset_and_ordered(channel, UniformGridIndex(cell, phys), phys)


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
        _assert_superset_and_ordered(channel, UniformGridIndex(10.0, phys), phys)


def test_the_channel_grid_files_every_phy_once_in_registration_order():
    # Registered right to left, so registration order runs against the
    # cells' order: candidates must still come back by registration.
    sim = Simulator(seed=1)
    positions = [(40.0, 3.0), (20.0, 3.0), (3.0, 3.0), (3.0, 40.0), (5.0, 5.0)]
    channel, phys = _build(sim, positions)
    spatial = channel._ensure_spatial()
    assert spatial.cell_size_m == channel._reach
    assert [spatial.cell_for(position) for position in positions] == [
        (2, 0), (1, 0), (0, 0), (0, 2), (0, 0)]
    assert spatial.cell_count == 4
    # A zero-range query returns exactly the PHYs filed in one cell.
    assert spatial.candidates((3.0, 3.0), 0.0) == [phys[2], phys[4]]
    assert spatial.candidates((40.0, 3.0), 0.0) == [phys[0]]
    assert spatial.candidates((20.0, 20.0), 100.0) == channel.phys == phys
    assert channel._ensure_spatial() is spatial


def test_cell_size_must_be_positive_and_finite():
    with pytest.raises(ConfigurationError):
        UniformGridIndex(0.0, [])
    with pytest.raises(ConfigurationError):
        UniformGridIndex(-3.0, [])
    with pytest.raises(ConfigurationError):
        UniformGridIndex(float("inf"), [])


# ---------------------------------------------------------------------------
# One rule: the grid and the plans serve channels without models
# ---------------------------------------------------------------------------

class _Subframe:
    size_bytes = 1464


def _send(channel, sender):
    channel.broadcast(sender, PhyFrame.data([], [_Subframe()], unicast_rate=HYDRA_BASE_RATE),
                      1e-3)


def _count_grid_queries(monkeypatch):
    """A list that gets one entry per ``UniformGridIndex.candidates`` call."""
    queries = []
    candidates = UniformGridIndex.candidates

    def counted(*args):
        queries.append(args[1])
        return candidates(*args)

    monkeypatch.setattr(UniformGridIndex, "candidates", counted)
    return queries


def _receivers(plan):
    return [receiver for receiver, _, _ in plan[2]]


#: Where the rover jumps to: the far corner of LATTICE, two cells away.
FAR_CORNER = (60.0, 50.0)


@pytest.mark.parametrize("make_model", [Fixed, lambda: Jumps(((0.5, FAR_CORNER),))],
                         ids=["fixed", "jumps"])
def test_a_channel_holding_a_model_never_asks_the_grid(monkeypatch, make_model):
    queries = _count_grid_queries(monkeypatch)
    sim = Simulator(seed=5)
    channel, phys = _build(sim, LATTICE)
    rover = Phy(sim, channel, position=(1.0, 1.0), name="rover", mobility=make_model())
    # A static PHY registering later does not bring the grid back.
    Phy(sim, channel, position=(30.0, 30.0), name="late")
    assert len(channel.phys) > medium.AUTO_SPATIAL_THRESHOLD
    heard = []
    for at in (0.0, 0.25, 0.5, 0.75):
        sim.run(until=at)
        for sender in (phys[0], rover, phys[-1]):
            _send(channel, sender)
        heard.append(_receivers(channel._plan(rover, sim.now)))
        assert heard[-1] == _detectable_receivers(channel, rover, channel.phys)
    assert queries == []
    assert channel._plans == {}
    assert channel._spatial is None
    assert channel.total_transmissions == 12
    # The scan follows the rover wherever its model puts it.
    assert (heard[1] != heard[2]) == isinstance(rover.mobility, Jumps)


def test_a_static_newcomer_drops_the_grid_and_every_plan(monkeypatch):
    queries = _count_grid_queries(monkeypatch)
    sim = Simulator(seed=6)
    channel, phys = _build(sim, LATTICE)
    for sender in phys[:3]:
        _send(channel, sender)
    assert queries and channel._spatial is not None
    assert sorted(channel._plans) == [0, 1, 2]

    newcomer = Phy(sim, channel, position=(4.0, 1.0), name="newcomer")
    assert channel._spatial is None
    assert channel._plans == {}

    _send(channel, phys[0])
    plan = channel._plans[phys[0].channel_index]
    receivers = _receivers(plan)
    assert receivers[-1] is newcomer
    assert [phy.channel_index for phy in receivers] == sorted(
        phy.channel_index for phy in receivers)
    assert newcomer in channel._spatial.candidates((4.0, 1.0), 0.0)
    monkeypatch.setattr(medium, "AUTO_SPATIAL_THRESHOLD", 10 ** 9)
    assert channel._plan(phys[0], sim.now)[2] == plan[2]


def test_a_newcomer_with_a_model_drops_the_grid_for_good(monkeypatch):
    queries = _count_grid_queries(monkeypatch)
    sim = Simulator(seed=7)
    channel, phys = _build(sim, LATTICE)
    _send(channel, phys[0])
    asked = len(queries)
    assert asked > 0 and channel._plans

    rover = Phy(sim, channel, position=(4.0, 1.0), name="rover",
                mobility=Jumps(((0.5, FAR_CORNER),)))
    for at in (0.0, 0.5, 1.0):
        sim.run(until=at)
        _send(channel, phys[0])
        _send(channel, rover)
    assert len(queries) == asked
    assert channel._spatial is None
    assert channel._plans == {}


def test_registering_a_phy_again_changes_nothing():
    sim = Simulator(seed=8)
    channel, phys = _build(sim, LATTICE)
    _send(channel, phys[0])
    plans, spatial = dict(channel._plans), channel._spatial
    assert spatial is not None
    channel.register(phys[1])
    assert channel.phys == phys
    assert [phy.channel_index for phy in phys] == list(range(len(phys)))
    assert channel._plans == plans
    assert channel._spatial is spatial


def _gauges(sim):
    return {gauge["name"]: gauge["value"] for gauge in sim.metrics.snapshot()["gauges"]
            if gauge["name"].startswith("channel.")}


def test_the_spatial_cells_gauge_reads_zero_while_a_model_is_registered():
    with observe(metrics=True):
        static_sim = Simulator(seed=9)
        mobile_sim = Simulator(seed=9)
    static_channel, static_phys = _build(static_sim, LATTICE)
    mobile_channel, mobile_phys = _build(mobile_sim, LATTICE)
    Phy(mobile_sim, mobile_channel, position=(1.0, 1.0), name="rover", mobility=Fixed())
    _send(static_channel, static_phys[0])
    _send(mobile_channel, mobile_phys[0])
    static, mobile = _gauges(static_sim), _gauges(mobile_sim)
    # 72 PHYs 8 m apart over 14.6 m cells: a 5 x 4 block of cells.
    assert static["channel.spatial_cells"] == static_channel._spatial.cell_count == 20
    assert mobile["channel.spatial_cells"] == 0
    assert (static["channel.registered_phys"], mobile["channel.registered_phys"]) == (72, 73)
