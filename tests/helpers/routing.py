"""Reusable routing property-test harness.

Shared by the DSDV and AODV property tests (and anything else that needs a
random connected topology): generation of random connected node placements
under the radio's decodability geometry, BFS ground-truth distances, and
hop-by-hop route walking that asserts loop freedom.

The geometry constants: the default indoor propagation model decodes out to
~12.5 m, but subframe survival at 0.65 Mbps only stays ~1.0 up to ~8 m and
collapses past 10 m.  Graph edges therefore require <= ``LINK_M``
(reliable), non-edges require > ``NO_LINK_M`` (undecodable), and placements
with any pair in the lossy band between them are rejected — the connectivity
graph the properties check then matches what the radios actually experience.
"""

from __future__ import annotations

import math
import random
from collections import deque
from typing import Dict, List, Sequence, Tuple

LINK_M = 8.0
NO_LINK_M = 12.5


def connectivity(positions: Sequence[Tuple[float, float]]) -> List[List[int]]:
    """Adjacency lists under the decodability range."""
    n = len(positions)
    adjacency: List[List[int]] = [[] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if math.dist(positions[i], positions[j]) <= LINK_M:
                adjacency[i].append(j)
                adjacency[j].append(i)
    return adjacency


def bfs_distances(adjacency: List[List[int]], start: int) -> Dict[int, int]:
    """Hop distances from ``start`` on the connectivity graph."""
    distances = {start: 0}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        for neighbor in adjacency[node]:
            if neighbor not in distances:
                distances[neighbor] = distances[node] + 1
                queue.append(neighbor)
    return distances


def ambiguous(positions: Sequence[Tuple[float, float]]) -> bool:
    """True when any pair sits in the lossy band between link and no-link."""
    n = len(positions)
    for i in range(n):
        for j in range(i + 1, n):
            distance = math.dist(positions[i], positions[j])
            if LINK_M < distance <= NO_LINK_M:
                return True
    return False


def connected_placement(rng: random.Random, node_count: int,
                        area_m: float) -> List[Tuple[float, float]]:
    """Random positions, rejected until connected and unambiguous."""
    while True:
        positions = [(rng.uniform(0.0, area_m), rng.uniform(0.0, area_m))
                     for _ in range(node_count)]
        if ambiguous(positions):
            continue
        adjacency = connectivity(positions)
        if len(bfs_distances(adjacency, 0)) == node_count:
            return positions


def has_valid_route(table, destination) -> bool:
    """True when ``table`` holds a valid (forwarding) entry for ``destination``."""
    entry = table.entry_for(destination)
    return entry is not None and entry.valid


def walk_route(nodes: Sequence, source_index: int, dest_index: int) -> int:
    """Follow next hops from source to destination; return the hop count.

    Asserts the route-validity invariant at every step: each node along the
    path holds a valid entry for the destination, no node is visited twice
    (loop freedom), and the walk terminates at the destination.  Node indices
    are positions in ``nodes`` (0-based), which must expose ``.ip`` and
    ``.router.table``.
    """
    index_of = {node.ip: i for i, node in enumerate(nodes)}
    target = nodes[dest_index]
    current, hops, visited = source_index, 0, {source_index}
    while current != dest_index:
        entry = nodes[current].router.table.entry_for(target.ip)
        assert entry is not None and entry.valid, (
            f"node {current + 1} has no valid route to node {dest_index + 1}")
        current = index_of[entry.next_hop]
        hops += 1
        assert current not in visited, (
            f"routing loop towards node {dest_index + 1} at node {current + 1}")
        visited.add(current)
        assert hops <= len(nodes)
    return hops


def assert_routes_loop_free_and_shortest(
        scenario, positions: Sequence[Tuple[float, float]]) -> None:
    """The proactive (DSDV) property: every pair, loop-free AND shortest.

    For every ordered pair the stored metric must equal the BFS distance on
    the connectivity graph and the walked path must realize exactly that many
    hops without revisiting a node.
    """
    adjacency = connectivity(positions)
    nodes = scenario.network.nodes
    for i, node in enumerate(nodes):
        distances = bfs_distances(adjacency, i)
        for j, target in enumerate(nodes):
            if i == j:
                continue
            expected = distances[j]
            entry = node.router.table.entry_for(target.ip)
            assert entry is not None and entry.valid, (
                f"node {i + 1} has no route to node {j + 1}")
            assert entry.metric == expected, (
                f"node {i + 1} -> node {j + 1}: metric {entry.metric}, "
                f"BFS distance {expected}")
            assert walk_route(nodes, i, j) == expected


def assert_routes_loop_free_and_reach(
        scenario, pairs: Sequence[Tuple[int, int]]) -> None:
    """The reactive (AODV) property: every requested pair, loop-free + valid.

    After a demand-driven warm-up, each requested (source, destination) pair
    must hold a route whose hop-by-hop walk reaches the destination without
    loops.  On-demand routes need not be shortest — they follow whichever
    RREQ copy won the flood — so only validity and loop freedom are asserted.
    ``pairs`` are 0-based indices into ``scenario.network.nodes``.
    """
    nodes = scenario.network.nodes
    for source_index, dest_index in pairs:
        walk_route(nodes, source_index, dest_index)
