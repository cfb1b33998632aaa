"""The event stream behind the paper's scenarios, pinned count by count.

The golden digests (``test_golden_results.py``) pin what experiments
report; this file pins the events that produce it.  For a few scenario
runner calls it records how many events the simulator ran, how many
frames the channel carried and delivered, and what every PHY sent,
received and lost to collision.  A change meant to make the per-frame
path cheaper must leave every number here as it is: it may make an event
cheaper, never add, drop or move one.
"""

from __future__ import annotations

import pytest

from repro.core.policies import broadcast_aggregation, no_aggregation
from repro.experiments.scenarios import run_star_tcp, run_tcp_transfer, run_udp_saturation

SEED = 3
FILE_BYTES = 30_000


def _event_counts(network) -> tuple:
    """``(events, transmissions, deliveries, per-PHY (sent, received, collided))``."""
    channel = network.channel
    return (network.sim.events_processed,
            channel.total_transmissions,
            channel.total_deliveries,
            tuple((node.phy.frames_sent, node.phy.frames_received, node.phy.frames_collided)
                  for node in network.nodes))


RUNS = {
    "tcp-NA-3hop": lambda: run_tcp_transfer(
        no_aggregation(), hops=3, rate_mbps=0.65, file_bytes=FILE_BYTES, seed=SEED),
    "tcp-BA-3hop": lambda: run_tcp_transfer(
        broadcast_aggregation(), hops=3, rate_mbps=0.65, file_bytes=FILE_BYTES, seed=SEED),
    "star-BA": lambda: run_star_tcp(
        broadcast_aggregation(), rate_mbps=0.65, file_bytes=FILE_BYTES, seed=SEED),
    "udp-flooding-BA": lambda: run_udp_saturation(
        broadcast_aggregation(), duration=3.0, flooding_interval=0.5, seed=SEED),
}

EXPECTED = {
    "tcp-NA-3hop": (5408, 636, 1908, ((106, 530, 0), (212, 424, 0), (212, 424, 0),
                                      (106, 530, 0))),
    "tcp-BA-3hop": (1647, 195, 585, ((28, 167, 0), (64, 131, 0), (63, 132, 0),
                                     (40, 155, 0))),
    # The star's two sessions contend at the relay: collisions included.
    "star-BA": (2113, 249, 747, ((68, 181, 5), (118, 131, 6), (29, 220, 3),
                                 (34, 215, 4))),
    "udp-flooding-BA": (1836, 217, 434, ((54, 162, 0), (106, 111, 0), (57, 159, 0))),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_event_stream_is_pinned(name):
    assert _event_counts(RUNS[name]().network) == EXPECTED[name]
