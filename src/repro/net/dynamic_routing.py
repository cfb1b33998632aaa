"""DSDV-style distance-vector routing.

The paper's forwarding plane (:mod:`repro.net.routing`) assumes routes are
installed once and never change, which is true of the Section 5 testbed but
not of the mobile scenarios.  This module adds the missing control plane: a
seeded, deterministic **Destination-Sequenced Distance Vector** protocol in
the style of Perkins & Bhagwat, layered on the HELLO liveness of
:mod:`repro.net.discovery`.

DSDV sequence-number rules (the loop-freedom invariant)
-------------------------------------------------------

Every route entry carries a *sequence number* originated by the destination
itself:

* each node numbers its **own** destination with **even** sequence numbers,
  incremented by 2 on every periodic advertisement — so fresher information
  about a destination always carries a larger even number;
* when a node detects a **link break**, it advertises the lost routes with
  the broken route's sequence number **plus one** — an **odd** number — and
  an infinite metric.  Odd numbers therefore always denote
  "destination unreachable as of this epoch", and the destination itself
  supersedes the break the next time it advertises (its next even number is
  larger than any break number derived from an older one);
* a received route replaces the current one iff its sequence number is
  **newer**, or is **equal with a strictly smaller metric**.  Ties never
  cause a switch, so transient route flapping cannot form loops.

Because metrics only grow along a path while sequence numbers are pinned by
the origin, a routing loop would require a node to prefer older-or-equal
information with a larger metric — excluded by the update rule above.

Implementation notes:

* Routes live in the node's one :class:`~repro.net.routing.RoutingTable`,
  so the :class:`~repro.net.routing.ForwardingEngine`, TCP, UDP and flooding
  all work unmodified on top of it; withdrawn routes raise the same
  :class:`~repro.errors.RoutingError` a missing static route would, and a
  static route installed by hand (:data:`~repro.net.routing.STATIC_SEQUENCE`)
  is never advertised.
* ``routing=DsdvConfig(...)`` selects this protocol; the config holds only the
  two intervals the experiments vary, everything else is a module constant.
* Updates are broadcast packets (IP protocol ``"dsdv"``) sent through the
  real MAC: they contend, aggregate under the UA/BA policies, and are lost
  like data.  Each update carries the full table (a *full dump*; the
  experiments' tables are small) as metadata annotations, with the packet
  size accounting for a per-entry wire cost.
* A router beacons and advertises from the moment it is built until the
  run's horizon.
* Triggered updates fire after a short settling delay when routes change
  (link breaks, new neighbors, adopted fresher routes), so reconvergence is
  bounded by the HELLO hold time plus one settling delay rather than the
  periodic advertisement interval.
* All jitter comes from a per-node stream (``dsdv.<name>``) derived from the
  simulator's root seed; table iteration is in sorted destination order; the
  protocol is therefore byte-deterministic per seed, in-process and across
  campaign pool workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.mac.addresses import MacAddress
from repro.net.address import IpAddress
from repro.net.discovery import (
    NeighborDiscovery,
    rejitter,
    require_positive_seconds,
)
from repro.net.packet import IpHeader, Packet
from repro.net.routing import (
    BROADCAST_IP,
    INFINITE_METRIC,
    RouteEntry,
    RoutingTable,
)
from repro.sim.simulator import Simulator
from repro.sim.timer import PeriodicTimer, Timer

#: IP protocol tag carried by DSDV route updates.
DSDV_PROTOCOL = "dsdv"

#: Settling delay (seconds) before a triggered update is sent, so several
#: simultaneous changes coalesce into one broadcast.
TRIGGERED_DELAY = 0.1

#: Wire-size model of an update: a fixed header plus this many bytes per
#: advertised entry (destination + metric + sequence number).
UPDATE_HEADER_BYTES = 8
UPDATE_ENTRY_BYTES = 12


@dataclass(frozen=True)
class DsdvConfig:
    """Routing value that makes a node run DSDV: ``Node(routing=DsdvConfig())``.

    The defaults suit Hydra's sub-megabit rates: at 0.65 Mbps a HELLO beacon
    occupies well under a millisecond of air, so one beacon per second and a
    full-dump advertisement every three seconds keep control overhead in the
    low percent range while bounding neighbor-loss detection at ~3.5 s (the
    HELLO hold time) — commensurate with the seconds-scale outages the mobile
    scenarios produce.
    """

    #: Nominal HELLO beacon interval in seconds.
    hello_interval: float = 1.0
    #: Nominal period of full-dump advertisements in seconds.
    advertise_interval: float = 3.0

    def __post_init__(self) -> None:
        require_positive_seconds("hello_interval", self.hello_interval)
        require_positive_seconds("advertise_interval", self.advertise_interval)


class DsdvRouter:
    """The DSDV control plane of one node.

    Maintains the node's :class:`~repro.net.routing.RoutingTable`, owns its
    :class:`~repro.net.discovery.NeighborDiscovery`, broadcasts periodic and
    triggered route updates, and applies the sequence-number rules documented
    in the module docstring.
    """

    def __init__(self, sim: Simulator, network, table: RoutingTable,
                 config: Optional[DsdvConfig] = None,
                 name: Optional[str] = None) -> None:
        self.sim = sim
        self.network = network
        self.table = table
        self.config = config or DsdvConfig()
        self.address = IpAddress(network.address)
        self.name = name or f"dsdv-{self.address}"
        self.discovery = NeighborDiscovery(sim, network, self.config.hello_interval,
                                           name=f"{self.name}.hello")
        self.discovery.on_neighbor_up(self._on_neighbor_up)
        self.discovery.on_neighbor_down(self._on_neighbor_down)
        self._rng = sim.random.stream(f"dsdv.{self.name}")
        self._own_sequence = 0
        self._advert_timer = PeriodicTimer(sim, self.config.advertise_interval,
                                           self._on_periodic,
                                           priority=Simulator.PRIORITY_NET,
                                           name=f"{self.name}.advert")
        self._triggered_timer = Timer(sim, self._on_triggered,
                                      priority=Simulator.PRIORITY_NET,
                                      name=f"{self.name}.triggered")
        #: Route lifecycle log: (time, destination, event) with event one of
        #: ``"installed"`` (first valid route), ``"broken"`` (valid →
        #: unreachable) or ``"restored"`` (unreachable → valid again).  The
        #: experiments derive route-repair latency from broken→restored gaps.
        self.route_log: List[Tuple[float, IpAddress, str]] = []
        # statistics
        self.updates_sent = 0
        self.triggered_updates_sent = 0
        self.updates_received = 0
        self.entries_advertised = 0
        self.route_changes = 0
        self.route_breaks = 0
        sim.metrics.register_collector(self._collect_metrics)
        network.register_handler(DSDV_PROTOCOL, self._on_advertisement)
        # The discovery above is already beaconing; advertisements start now.
        self._advert_timer.start(
            self._rng.uniform(0.0, self.config.advertise_interval))

    # ------------------------------------------------------------------
    # Advertisement transmission
    # ------------------------------------------------------------------
    def _wire_routes(self) -> Tuple[Tuple[int, int, int], ...]:
        """The advertised vector: (destination, sequence, metric) triples."""
        routes = [(self.address.value, self._own_sequence, 0)]
        for entry in self.table.entries():
            if entry.destination == self.address or entry.sequence < 0:
                continue
            routes.append((entry.destination.value, entry.sequence, entry.metric))
        return tuple(routes)

    def _broadcast_update(self, triggered: bool) -> None:
        routes = self._wire_routes()
        payload = UPDATE_HEADER_BYTES + len(routes) * UPDATE_ENTRY_BYTES
        packet = Packet(
            ip=IpHeader(src=self.address, dst=BROADCAST_IP,
                        protocol=DSDV_PROTOCOL, ttl=1),
            payload_bytes=payload, created_at=self.sim.now,
            annotations={"dsdv_routes": routes, "dsdv_triggered": triggered})
        self.updates_sent += 1
        if triggered:
            self.triggered_updates_sent += 1
        self.entries_advertised += len(routes)
        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.emit(self.name, "dsdv", "update_tx", entries=len(routes), triggered=triggered)
        self.network.send(packet)

    def _on_periodic(self) -> None:
        # A fresh even sequence number for our own destination on every
        # periodic advertisement (rule 1 of the module docstring).
        self._own_sequence += 2
        self._broadcast_update(triggered=False)
        rejitter(self._advert_timer, self.config.advertise_interval, self._rng)

    def _schedule_triggered(self) -> None:
        if not self._triggered_timer.running:
            self._triggered_timer.start(TRIGGERED_DELAY)

    def _on_triggered(self) -> None:
        self._broadcast_update(triggered=True)

    # ------------------------------------------------------------------
    # Advertisement reception
    # ------------------------------------------------------------------
    def _on_advertisement(self, packet: Packet, source_mac: MacAddress) -> None:
        sender = IpAddress(packet.ip.src)
        if sender == self.address:  # pragma: no cover - broadcasts never loop back
            return
        self.updates_received += 1
        # Receiving an update is proof the link works: refresh liveness so a
        # lost beacon does not expire a neighbor whose updates still arrive.
        self.discovery.heard(sender)
        routes = packet.annotations.get("dsdv_routes", ())
        changed = False
        for destination_value, sequence, metric in routes:
            destination = IpAddress(destination_value)
            if destination == self.address:
                # Someone advertises *us* with a sequence number newer than
                # ours — an odd break number after a false-positive expiry
                # (echoes of our own advertisements carry exactly our current
                # number and are ignored).  Jump past it so our next
                # advertisement supersedes the stale break everywhere.
                if sequence > self._own_sequence:
                    self._own_sequence = sequence + (2 if sequence % 2 == 0 else 1)
                    self._schedule_triggered()
                continue
            changed |= self._consider(destination, sender, sequence, metric)
        if changed:
            self._schedule_triggered()

    def _consider(self, destination: IpAddress, sender: IpAddress,
                  sequence: int, metric: int) -> bool:
        """Apply the DSDV update rule to one advertised route; True if adopted."""
        new_metric = metric + 1 if metric < INFINITE_METRIC else INFINITE_METRIC
        current = self.table.entry_for(destination)
        if current is not None:
            newer = sequence > current.sequence
            better = sequence == current.sequence and new_metric < current.metric
            if not newer and not better:
                return False
            if (not current.valid and new_metric >= INFINITE_METRIC):
                # Already withdrawn; just remember the fresher break epoch.
                self.table.install(RouteEntry(destination, current.next_hop,
                                              current.metric, sequence))
                return False
        elif new_metric >= INFINITE_METRIC:
            return False  # never heard of it and it is unreachable: ignore
        entry = RouteEntry(destination, sender, new_metric, sequence)
        was_valid = current is not None and current.valid
        self.table.install(entry)
        if entry.valid and not was_valid:
            self.route_changes += 1
            self._log(destination, "installed" if current is None else "restored")
        elif not entry.valid and was_valid:
            self.route_breaks += 1
            self.route_changes += 1
            self._log(destination, "broken")
        elif entry.valid and (entry.next_hop != current.next_hop
                              or entry.metric != current.metric):
            self.route_changes += 1
        else:
            return False  # only the sequence number advanced: nothing to re-advertise
        return True

    # ------------------------------------------------------------------
    # Link events from neighbor discovery
    # ------------------------------------------------------------------
    def _on_neighbor_up(self, neighbor: IpAddress) -> None:
        # A new neighbor needs our table quickly (and we will learn its
        # routes from the triggered update it sends for the same reason).
        self._schedule_triggered()

    def _on_neighbor_down(self, neighbor: IpAddress) -> None:
        broken = False
        for entry in self.table.entries():
            if not entry.valid or entry.next_hop != neighbor:
                continue
            # Rule 2: link-break routes get the old sequence number plus one
            # (odd = unreachable epoch) and an infinite metric.
            self.table.install(RouteEntry(
                entry.destination, entry.next_hop, INFINITE_METRIC,
                entry.sequence + 1 if entry.sequence >= 0 else 1))
            self.route_breaks += 1
            self.route_changes += 1
            self._log(entry.destination, "broken")
            broken = True
        if broken:
            self._schedule_triggered()

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    def _log(self, destination: IpAddress, event: str) -> None:
        self.route_log.append((self.sim.now, destination, event))

    def repair_latencies(self, destination: IpAddress) -> List[float]:
        """Broken → restored gaps (seconds) observed for ``destination``."""
        destination = IpAddress(destination)
        latencies: List[float] = []
        broken_at: Optional[float] = None
        for time, dest, event in self.route_log:
            if dest != destination:
                continue
            if event == "broken":
                broken_at = time
            elif event in ("restored", "installed") and broken_at is not None:
                latencies.append(time - broken_at)
                broken_at = None
        return latencies

    def summary(self) -> dict:
        """Flat headline statistics (reports and tests)."""
        return {
            "updates_sent": self.updates_sent,
            "triggered_updates_sent": self.triggered_updates_sent,
            "updates_received": self.updates_received,
            "route_changes": self.route_changes,
            "route_breaks": self.route_breaks,
            "valid_routes": len(self.table),
            "neighbors": len(self.discovery),
            "hellos_sent": self.discovery.hellos_sent,
        }

    def _collect_metrics(self, registry) -> None:
        """Snapshot-time collector: the router summary as per-node gauges."""
        for key, value in self.summary().items():
            if isinstance(value, (int, float)):
                registry.set_gauge(f"dsdv.{key}", value, node=self.name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<DsdvRouter {self.name} routes={len(self.table)} "
                f"neighbors={len(self.discovery)} seq={self._own_sequence}>")
