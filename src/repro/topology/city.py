"""City-scale topology layouts (1,000–10,000 nodes).

The paper's topologies top out at a handful of nodes; the ``city01``
experiment family (:mod:`repro.experiments.city01_scale`) needs layouts three
orders of magnitude larger.  Two deterministic placements are provided:

* ``"grid"`` — a square lattice at ``spacing_m`` (default 8 m, the same
  spacing the mesh experiments use: safely inside the ~12.5 m decodability
  limit of the indoor propagation model, so every interior node has 8–12
  usable neighbours and the network is connected at any size);
* ``"clusters"`` — random cluster centres over the same extent with
  Gaussian scatter around each, modelling the uneven density of a real
  deployment.  Positions are drawn from a seeded stream, so a given seed
  always produces the same city.

Both placements emit positions in node-index order, which — via
registration order — fixes the spatial index's candidate ordering and keeps
runs byte-reproducible per seed.
"""

from __future__ import annotations

import math
import random
from typing import List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, ExperimentError
from repro.node.node import Node
from repro.topology.mobile import MobileScenario

#: Default lattice spacing, shared with the mesh experiments (metres).
CITY_SPACING_M = 8.0

CITY_PLACEMENTS = ("grid", "clusters")


def city_grid_side(node_count: int) -> int:
    """Side length of the smallest square lattice holding ``node_count``."""
    return math.ceil(math.sqrt(node_count))


def city_positions(node_count: int, spacing_m: float = CITY_SPACING_M,
                   placement: str = "grid",
                   cluster_count: Optional[int] = None,
                   cluster_sigma_m: Optional[float] = None,
                   rng=None) -> List[Tuple[float, float]]:
    """Deterministic positions for a city of ``node_count`` nodes.

    ``"grid"`` needs no randomness; ``"clusters"`` draws centres and scatter
    from ``rng`` (any object with ``uniform``/``gauss``, e.g. a simulator
    stream), which the caller must provide so the draws come from a seeded
    source.
    """
    if node_count < 1:
        raise ConfigurationError(f"node_count must be positive, got {node_count}")
    if spacing_m <= 0:
        raise ConfigurationError(f"spacing_m must be positive, got {spacing_m}")
    if placement not in CITY_PLACEMENTS:
        raise ConfigurationError(
            f"placement must be one of {CITY_PLACEMENTS}, got {placement!r}")
    side = city_grid_side(node_count)
    if placement == "grid":
        return [((index % side) * spacing_m, (index // side) * spacing_m)
                for index in range(node_count)]
    if rng is None:
        raise ConfigurationError("cluster placement needs a seeded rng")
    extent = max((side - 1) * spacing_m, spacing_m)
    count = cluster_count if cluster_count is not None else max(1, node_count // 64)
    if count < 1:
        raise ConfigurationError(f"cluster_count must be positive, got {count}")
    sigma = cluster_sigma_m if cluster_sigma_m is not None else 2.0 * spacing_m
    centres = [(rng.uniform(0.0, extent), rng.uniform(0.0, extent))
               for _ in range(count)]
    positions: List[Tuple[float, float]] = []
    for index in range(node_count):
        centre_x, centre_y = centres[index % count]
        positions.append((centre_x + rng.gauss(0.0, sigma),
                          centre_y + rng.gauss(0.0, sigma)))
    return positions


def populate_city(scenario: MobileScenario, node_count: int,
                  spacing_m: float = CITY_SPACING_M, placement: str = "grid",
                  cluster_count: Optional[int] = None,
                  cluster_sigma_m: Optional[float] = None) -> List[Node]:
    """Add a city of ``node_count`` stationary nodes to ``scenario``.

    Cluster placements draw from the simulator's ``city.placement`` stream,
    so the layout replicates per seed and across processes.
    """
    rng = None
    if placement == "clusters":
        rng = scenario.sim.random.stream("city.placement")
    positions = city_positions(node_count, spacing_m=spacing_m,
                               placement=placement, cluster_count=cluster_count,
                               cluster_sigma_m=cluster_sigma_m, rng=rng)
    return [scenario.add_node(position) for position in positions]


#: Largest lattice (Manhattan) distance between a city flow's endpoints.
FLOW_MAX_HOPS = 2


def nearby_flow_pairs(node_count: int, flow_count: int,
                      seed: int) -> List[Tuple[int, int]]:
    """Deterministic (source, destination) index pairs a few lattice hops apart.

    City-scale flows are deliberately *local* — at most
    :data:`FLOW_MAX_HOPS` grid hops long — so hundreds of them can coexist
    without every discovery flooding the whole city.  Pairs are distinct,
    drawn from a dedicated
    ``random.Random`` (independent of the simulator's streams, like the rt02
    sampler), and identical across protocol variants of the same seed.
    """
    if flow_count < 1:
        raise ExperimentError(f"flow_count must be positive, got {flow_count}")
    side = city_grid_side(node_count)
    offsets = [(dr, dc)
               for dr in range(-FLOW_MAX_HOPS, FLOW_MAX_HOPS + 1)
               for dc in range(-FLOW_MAX_HOPS, FLOW_MAX_HOPS + 1)
               if 0 < abs(dr) + abs(dc) <= FLOW_MAX_HOPS]
    rng = random.Random(79999 * seed + 13)  # lint: disable=RPR001 -- flow-pair sampling seeded from the replica seed; runs before any simulator exists
    pairs: List[Tuple[int, int]] = []
    seen = set()
    attempts_left = flow_count * 200
    while len(pairs) < flow_count and attempts_left > 0:
        attempts_left -= 1
        source = rng.randrange(1, node_count + 1)
        row, col = divmod(source - 1, side)
        delta_row, delta_col = offsets[rng.randrange(len(offsets))]
        dest_row, dest_col = row + delta_row, col + delta_col
        destination = dest_row * side + dest_col + 1
        if not (0 <= dest_row < side and 0 <= dest_col < side):
            continue
        if destination > node_count or (source, destination) in seen:
            continue
        seen.add((source, destination))
        pairs.append((source, destination))
    if len(pairs) < flow_count:
        raise ExperimentError(
            f"could not place {flow_count} distinct local flows on "
            f"{node_count} nodes (got {len(pairs)})")
    return pairs


def spread_indices(node_count: int, count: int) -> List[int]:
    """``count`` node indices spread evenly over ``1..node_count``."""
    if count < 1 or count > node_count:
        raise ExperimentError(
            f"cannot pick {count} distinct nodes out of {node_count}")
    return [1 + (i * node_count) // count for i in range(count)]


def assert_distinct(indices: Sequence[int]) -> Sequence[int]:
    """Guard: ``spread_indices`` results must never collide."""
    if len(set(indices)) != len(indices):
        raise ExperimentError(f"node index collision in {indices}")
    return indices
