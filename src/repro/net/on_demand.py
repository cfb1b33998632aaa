"""AODV-style on-demand (reactive) routing.

The DSDV control plane (:mod:`repro.net.dynamic_routing`) pays a fixed,
always-on beacon cost that is independent of how much of the mesh actually
carries traffic.  This module adds the classic counterpoint: an **Ad hoc
On-demand Distance Vector** router in the style of Perkins, Belding-Royer &
Das that spends control bytes only when a route is actually requested — the
proactive/reactive trade-off the ``rt02`` experiment measures.

Protocol rules (the loop-freedom invariant)
-------------------------------------------

* **Route discovery.**  When a packet has no route, the origin buffers it and
  floods a *route request* (RREQ) carrying a per-origin request id, the
  origin's own monotone sequence number and the freshest *destination
  sequence number* it knows.  Relays suppress duplicates by ``(origin,
  request id)``, install a *reverse route* towards the origin via the node
  they heard the RREQ from, and rebroadcast with the TTL decremented after a
  small seeded jitter.  Discovery uses an **expanding ring**: the first RREQ
  carries a small TTL, and each timeout retries with a larger ring until the
  network-diameter TTL has been retried :data:`RREQ_RETRIES` times —
  only then is the destination declared unreachable and the buffered packets
  dropped (the same :class:`~repro.errors.RoutingError` surface a missing
  static route has).
* **Route reply.**  Only the destination answers (the RFC 3561
  "destination-only" flag): it bumps its own sequence number past the
  requested one and unicasts a *route reply* (RREP) hop by hop along the
  reverse routes.  Every node forwarding the RREP installs the *forward
  route* to the destination.  Routes are adopted iff the carried destination
  sequence number is **newer**, or **equal with a strictly smaller hop
  count** — the same rule that makes DSDV loop-free: metrics only grow along
  a path while sequence numbers are pinned by the destination, so preferring
  older-or-equal information with a larger metric is excluded.
* **Route maintenance.**  Active routes carry a lifetime refreshed by every
  data packet they forward; an expired route is invalidated (infinite metric,
  sequence number bumped) exactly like a withdrawn DSDV route.  A link break
  — delivered by the existing :class:`~repro.net.discovery.NeighborDiscovery`
  HELLO liveness — invalidates all routes over the broken link and broadcasts
  a *route error* (RERR) listing the lost destinations with their bumped
  sequence numbers; upstream nodes that were routing through the sender
  invalidate in turn and propagate their own RERR.

Implementation notes:

* Routes live in the node's one :class:`~repro.net.routing.RoutingTable`,
  shared with static routes and DSDV, so the
  :class:`~repro.net.routing.ForwardingEngine`, TCP, UDP and flooding run
  unmodified; the on-demand trigger is the forwarding engine's *no-route
  handler* hook (a packet that would have been a ``no_route_drop`` is
  buffered here instead while discovery runs).
* ``routing=AodvConfig(...)`` selects this protocol; the config holds only the
  HELLO interval and the active-route lifetime, everything else is a module
  constant.
* All control messages (IP protocol ``"aodv"``) travel through the real MAC:
  they contend, aggregate under the UA/BA policies, are lost like data, and
  are broken out in ``mac.stats`` (``routing_*`` counters) so goodput numbers
  stay honest.
* All jitter comes from a per-node stream (``aodv.<name>``) derived from the
  simulator's root seed and built at its first draw; table iteration,
  pending-request and expiry processing are in sorted order; the protocol is
  therefore byte-deterministic per seed, in-process and across campaign pool
  workers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.mac.addresses import MacAddress
from repro.net.address import IpAddress
from repro.net.discovery import NeighborDiscovery, require_positive_seconds
from repro.net.packet import IpHeader, Packet
from repro.net.routing import (
    BROADCAST_IP,
    INFINITE_METRIC,
    RouteEntry,
    RoutingTable,
)
from repro.sim.simulator import Simulator
from repro.sim.timer import Timer

#: IP protocol tag carried by AODV control messages (RREQ/RREP/RERR).
AODV_PROTOCOL = "aodv"

#: Sequence number meaning "origin knows no destination sequence number yet".
UNKNOWN_SEQUENCE = -1

#: Expanding-ring search: TTL of the first RREQ, the increment applied on
#: every timeout, and the network-diameter ceiling.
RING_START_TTL = 1
RING_TTL_INCREMENT = 2
RING_MAX_TTL = 7

#: Extra attempts at the diameter TTL before the destination is declared
#: unreachable (RFC 3561's RREQ_RETRIES).
RREQ_RETRIES = 2

#: Seconds waited for a RREP per unit of RREQ TTL (the ring traversal time:
#: one TTL unit of flooding out plus the reply back).
RING_TIMEOUT_PER_TTL = 0.2

#: RREQ rebroadcasts are delayed by ``uniform(0, REBROADCAST_JITTER)`` seconds
#: so relays hearing the same flood do not retransmit in lockstep.
REBROADCAST_JITTER = 0.02

#: Data packets buffered per destination while discovery runs; the oldest
#: packet is dropped when a new one would exceed the bound.
BUFFER_PACKETS = 32

#: Seconds a seen (origin, request id) pair is remembered for duplicate
#: suppression (RFC 3561's PATH_DISCOVERY_TIME).  Request ids are never
#: reused, so pruning only bounds memory — it cannot re-admit a flood.
PATH_DISCOVERY_TIME = 10.0

#: Wire-size model of the control messages (payload bytes on top of the IP
#: header the packet model already accounts).
RREQ_BYTES = 24
RREP_BYTES = 20
RERR_HEADER_BYTES = 8
RERR_ENTRY_BYTES = 8


@dataclass(frozen=True)
class AodvConfig:
    """Routing value that makes a node run AODV: ``Node(routing=AodvConfig())``.

    The defaults match the DSDV operating point: the same 1 s HELLO beacons
    bound link-break detection at ~3.5 s, while discovery timing suits
    Hydra's sub-megabit rates — at 0.65 Mbps a RREQ crosses a hop in well
    under :data:`RING_TIMEOUT_PER_TTL` even under contention, so an
    expanding-ring round trip comfortably fits its timeout.
    """

    #: Nominal HELLO beacon interval in seconds — link-break detection only;
    #: AODV never advertises routes proactively.
    hello_interval: float = 1.0
    #: Seconds an installed route stays valid without forwarding data.
    active_route_lifetime: float = 6.0

    def __post_init__(self) -> None:
        require_positive_seconds("hello_interval", self.hello_interval)
        require_positive_seconds("active_route_lifetime",
                                 self.active_route_lifetime)


@dataclass
class RouteRequestState:
    """One in-flight expanding-ring discovery at the origin."""

    destination: IpAddress
    ttl: int
    attempts: int = 0
    attempts_at_max: int = 0
    buffered: List[Packet] = field(default_factory=list)
    timer: Optional[Timer] = None


class AodvRouter:
    """The AODV control plane of one node.

    Maintains the node's :class:`~repro.net.routing.RoutingTable`, owns its
    :class:`~repro.net.discovery.NeighborDiscovery`, reacts to no-route
    events from the forwarding engine with expanding-ring route discovery,
    and maintains active-route lifetimes from forwarded data.
    """

    __slots__ = ("sim", "network", "table", "config", "address", "name",
                 "discovery", "_rng", "_own_sequence", "_rreq_id",
                 "_seen_requests", "_pending",
                 "_expires", "_expiry_timer", "rreqs_sent", "rreqs_forwarded",
                 "rreps_sent", "rreps_forwarded", "rerrs_sent",
                 "rerrs_received", "duplicate_rreqs_ignored",
                 "discoveries_started", "discoveries_completed",
                 "discoveries_failed", "buffered_packets_dropped",
                 "route_changes", "route_breaks", "route_expirations")

    def __init__(self, sim: Simulator, network, table: RoutingTable,
                 config: Optional[AodvConfig] = None,
                 name: Optional[str] = None) -> None:
        self.sim = sim
        self.network = network
        self.table = table
        self.config = config or AodvConfig()
        self.address = IpAddress(network.address)
        self.name = name or f"aodv-{self.address}"
        self.discovery = NeighborDiscovery(sim, network, self.config.hello_interval,
                                           name=f"{self.name}.hello")
        self.discovery.on_neighbor_down(self._on_neighbor_down)
        #: The ``aodv.<name>`` stream, built at its first draw: most routers
        #: of a large mesh never rebroadcast a RREQ.
        self._rng: Optional[random.Random] = None
        self._own_sequence = 0
        self._rreq_id = 0
        #: Duplicate suppression: (origin value, request id) → time first seen.
        self._seen_requests: Dict[Tuple[int, int], float] = {}
        #: In-flight discoveries keyed by destination.
        self._pending: Dict[IpAddress, RouteRequestState] = {}
        #: Active-route expiry instants keyed by destination.
        self._expires: Dict[IpAddress, float] = {}
        self._expiry_timer = Timer(sim, self._on_expiry,
                                   priority=Simulator.PRIORITY_NET,
                                   name=f"{self.name}.expiry")
        # statistics
        self.rreqs_sent = 0
        self.rreqs_forwarded = 0
        self.rreps_sent = 0
        self.rreps_forwarded = 0
        self.rerrs_sent = 0
        self.rerrs_received = 0
        self.duplicate_rreqs_ignored = 0
        self.discoveries_started = 0
        self.discoveries_completed = 0
        self.discoveries_failed = 0
        self.buffered_packets_dropped = 0
        self.route_changes = 0
        self.route_breaks = 0
        self.route_expirations = 0
        sim.metrics.register_collector(self._collect_metrics)
        network.register_handler(AODV_PROTOCOL, self._on_control)
        network.set_no_route_handler(self._on_no_route)
        network.set_forward_observer(self._on_data_forwarded)

    # ------------------------------------------------------------------
    # On-demand trigger (forwarding-engine no-route hook)
    # ------------------------------------------------------------------
    def _on_no_route(self, packet: Packet) -> bool:
        """Buffer a routeless data packet and start/continue discovery."""
        if packet.ip.protocol == AODV_PROTOCOL:
            return False  # never discover routes for our own control traffic
        destination = IpAddress(packet.ip.dst)
        state = self._pending.get(destination)
        if state is None:
            state = RouteRequestState(destination=destination, ttl=RING_START_TTL)
            state.timer = Timer(self.sim,
                                lambda: self._on_ring_timeout(destination),
                                priority=Simulator.PRIORITY_NET,
                                name=f"{self.name}.ring.{destination}")
            self._pending[destination] = state
            self.discoveries_started += 1
            state.buffered.append(packet)
            self._send_rreq(state)
        else:
            if len(state.buffered) >= BUFFER_PACKETS:
                evicted = state.buffered.pop(0)
                self.buffered_packets_dropped += 1
                tracer = self.sim.tracer
                if tracer.enabled:
                    tracer.emit(self.network.name, "net", "drop",
                                reason="buffer_full", packet=evicted)
            state.buffered.append(packet)
        return True

    # ------------------------------------------------------------------
    # RREQ origination and the expanding ring
    # ------------------------------------------------------------------
    def _send_rreq(self, state: RouteRequestState) -> None:
        self._own_sequence += 1
        self._rreq_id += 1
        known = self.table.entry_for(state.destination)
        destination_sequence = known.sequence if known is not None else UNKNOWN_SEQUENCE
        self._record_request((self.address.value, self._rreq_id))
        packet = Packet(
            ip=IpHeader(src=self.address, dst=BROADCAST_IP,
                        protocol=AODV_PROTOCOL, ttl=state.ttl),
            payload_bytes=RREQ_BYTES, created_at=self.sim.now,
            annotations={
                "aodv_type": "rreq",
                "aodv_rreq_id": self._rreq_id,
                "aodv_origin": self.address.value,
                "aodv_origin_seq": self._own_sequence,
                "aodv_dest": state.destination.value,
                "aodv_dest_seq": destination_sequence,
                "aodv_hops": 0,
            })
        self.rreqs_sent += 1
        state.attempts += 1
        if state.ttl >= RING_MAX_TTL:
            state.attempts_at_max += 1
        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.emit(self.name, "aodv", "rreq_tx", dest=str(state.destination),
                        ttl=state.ttl, attempt=state.attempts)
        self.network.send(packet)
        state.timer.start(RING_TIMEOUT_PER_TTL * state.ttl)

    def _on_ring_timeout(self, destination: IpAddress) -> None:
        state = self._pending.get(destination)
        if state is None:
            return
        if state.ttl < RING_MAX_TTL:
            state.ttl = min(state.ttl + RING_TTL_INCREMENT, RING_MAX_TTL)
        elif state.attempts_at_max > RREQ_RETRIES:
            self._fail_discovery(state)
            return
        self._send_rreq(state)

    def _fail_discovery(self, state: RouteRequestState) -> None:
        """Expanding-ring search exhausted: the destination is unreachable."""
        if state.timer is not None:
            state.timer.cancel()
        self._pending.pop(state.destination, None)
        self.discoveries_failed += 1
        # Replaced, not cleared: the trace record keeps the dropped list.
        dropped, state.buffered = state.buffered, []
        self.buffered_packets_dropped += len(dropped)
        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.emit(self.name, "aodv", "discovery_failed",
                        dest=str(state.destination), dropped=len(dropped), packets=dropped)

    def _complete_discovery(self, destination: IpAddress) -> None:
        state = self._pending.pop(destination, None)
        if state is None:
            return
        if state.timer is not None:
            state.timer.cancel()
        self.discoveries_completed += 1
        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.emit(self.name, "aodv", "discovery_complete",
                        dest=str(destination), flushed=len(state.buffered))
        for packet in state.buffered:
            self.network.reinject(packet)
        state.buffered.clear()

    # ------------------------------------------------------------------
    # Control-message reception
    # ------------------------------------------------------------------
    def _on_control(self, packet: Packet, source_mac: MacAddress) -> None:
        sender = IpAddress(packet.ip.src)
        if sender == self.address:  # pragma: no cover - broadcasts never loop back
            return
        # Any control packet is proof the link to the sender works.
        self.discovery.heard(sender)
        kind = packet.annotations.get("aodv_type")
        if kind == "rreq":
            self._on_rreq(packet, sender)
        elif kind == "rrep":
            self._on_rrep(packet, sender)
        elif kind == "rerr":
            self._on_rerr(packet, sender)

    # -- RREQ ----------------------------------------------------------
    def _on_rreq(self, packet: Packet, sender: IpAddress) -> None:
        origin = IpAddress(packet.annotations["aodv_origin"])
        request_key = (origin.value, packet.annotations["aodv_rreq_id"])
        self._touch_neighbor_route(sender)
        if origin == self.address:
            return  # a relay rebroadcast our own flood back at us
        if request_key in self._seen_requests:
            self.duplicate_rreqs_ignored += 1
            return
        self._record_request(request_key)
        hops = packet.annotations["aodv_hops"] + 1
        # Reverse route towards the origin, via whoever relayed the RREQ.
        self._consider(origin, sender,
                       sequence=packet.annotations["aodv_origin_seq"],
                       metric=hops)
        destination = IpAddress(packet.annotations["aodv_dest"])
        if destination == self.address:
            # Destination-only replies: bump our sequence number past the
            # freshest value the origin asked about, so the reply supersedes
            # every stale entry (including odd break markers) along the path.
            self._own_sequence = max(self._own_sequence,
                                     packet.annotations["aodv_dest_seq"]) + 1
            self._send_rrep(next_hop=sender, origin=origin,
                            destination_sequence=self._own_sequence, hops=0)
            return
        ttl_remaining = packet.ip.ttl - 1
        if ttl_remaining <= 0:
            return  # the expanding ring ends here
        rebroadcast = Packet(
            ip=IpHeader(src=self.address, dst=BROADCAST_IP,
                        protocol=AODV_PROTOCOL, ttl=ttl_remaining),
            payload_bytes=RREQ_BYTES, created_at=self.sim.now,
            annotations={**packet.annotations, "aodv_hops": hops})
        self.rreqs_forwarded += 1
        rng = self._rng
        if rng is None:
            rng = self._rng = self.sim.random.stream(f"aodv.{self.name}")
        delay = rng.uniform(0.0, REBROADCAST_JITTER)
        self.sim.schedule(delay, self.network.send, rebroadcast,
                          priority=Simulator.PRIORITY_NET)

    def _record_request(self, request_key: Tuple[int, int]) -> None:
        """Remember a request id, pruning entries past the discovery window.

        Request ids are monotone per origin and never reused, so expired
        entries cannot re-admit a duplicate — the sweep only keeps the seen
        set proportional to the discovery rate instead of the run length.
        """
        cutoff = self.sim.now - PATH_DISCOVERY_TIME
        expired = [key for key, seen_at in self._seen_requests.items()
                   if seen_at < cutoff]
        for key in expired:
            del self._seen_requests[key]
        self._seen_requests[request_key] = self.sim.now

    # -- RREP ----------------------------------------------------------
    def _send_rrep(self, next_hop: IpAddress, origin: IpAddress,
                   destination_sequence: int, hops: int) -> None:
        packet = Packet(
            ip=IpHeader(src=self.address, dst=next_hop,
                        protocol=AODV_PROTOCOL, ttl=1),
            payload_bytes=RREP_BYTES, created_at=self.sim.now,
            annotations={
                "aodv_type": "rrep",
                "aodv_origin": origin.value,
                "aodv_dest": self.address.value,
                "aodv_dest_seq": destination_sequence,
                "aodv_hops": hops,
            })
        self.rreps_sent += 1
        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.emit(self.name, "aodv", "rrep_tx", origin=str(origin), via=str(next_hop))
        self.network.send(packet)

    def _on_rrep(self, packet: Packet, sender: IpAddress) -> None:
        self._touch_neighbor_route(sender)
        destination = IpAddress(packet.annotations["aodv_dest"])
        hops = packet.annotations["aodv_hops"] + 1
        self._consider(destination, sender,
                       sequence=packet.annotations["aodv_dest_seq"],
                       metric=hops)
        origin = IpAddress(packet.annotations["aodv_origin"])
        if origin == self.address:
            self._complete_discovery(destination)
            return
        reverse = self.table.entry_for(origin)
        if reverse is None or not reverse.valid:
            return  # reverse route gone (expired or broken): the RREP dies here
        forwarded = Packet(
            ip=IpHeader(src=self.address, dst=reverse.next_hop,
                        protocol=AODV_PROTOCOL, ttl=1),
            payload_bytes=RREP_BYTES, created_at=self.sim.now,
            annotations={**packet.annotations, "aodv_hops": hops})
        self.rreps_forwarded += 1
        self.network.send(forwarded)

    # -- RERR ----------------------------------------------------------
    def _broadcast_rerr(self, unreachable: List[Tuple[int, int]]) -> None:
        payload = RERR_HEADER_BYTES + len(unreachable) * RERR_ENTRY_BYTES
        packet = Packet(
            ip=IpHeader(src=self.address, dst=BROADCAST_IP,
                        protocol=AODV_PROTOCOL, ttl=1),
            payload_bytes=payload, created_at=self.sim.now,
            annotations={"aodv_type": "rerr",
                         "aodv_unreachable": tuple(unreachable)})
        self.rerrs_sent += 1
        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.emit(self.name, "aodv", "rerr_tx", destinations=len(unreachable))
        self.network.send(packet)

    def _on_rerr(self, packet: Packet, sender: IpAddress) -> None:
        self.rerrs_received += 1
        propagated: List[Tuple[int, int]] = []
        for destination_value, sequence in packet.annotations["aodv_unreachable"]:
            destination = IpAddress(destination_value)
            entry = self.table.entry_for(destination)
            if entry is None or not entry.valid or entry.next_hop != sender:
                continue  # we were not routing through the sender
            new_sequence = max(sequence, entry.sequence + 1)
            self._invalidate(entry, new_sequence)
            self.route_breaks += 1
            propagated.append((destination.value, new_sequence))
        if propagated:
            self._broadcast_rerr(propagated)

    # ------------------------------------------------------------------
    # Route table maintenance
    # ------------------------------------------------------------------
    def _consider(self, destination: IpAddress, next_hop: IpAddress,
                  sequence: int, metric: int) -> bool:
        """Adopt a learned route under the sequence-number rule; True if adopted."""
        if destination == self.address:
            return False
        current = self.table.entry_for(destination)
        if current is not None:
            if current.valid:
                newer = sequence > current.sequence
                better = sequence == current.sequence and metric < current.metric
                if not newer and not better:
                    self._refresh(destination)  # fresh evidence the route works
                    return False
            elif sequence < current.sequence:
                return False  # older than the recorded break epoch
        self.table.install(RouteEntry(destination, next_hop, metric, sequence))
        self.route_changes += 1
        self._refresh(destination)
        return True

    def _touch_neighbor_route(self, neighbor: IpAddress) -> None:
        """Install/refresh the 1-hop route to a node we just heard directly."""
        current = self.table.entry_for(neighbor)
        if current is not None and current.valid and current.metric == 1:
            self._refresh(neighbor)
            return
        sequence = current.sequence if current is not None else 0
        self._consider(neighbor, neighbor, sequence=sequence, metric=1)

    def _on_data_forwarded(self, packet: Packet, next_hop: IpAddress) -> None:
        """Forwarded data keeps the routes it used alive (active-route rule)."""
        self._refresh(IpAddress(packet.ip.dst))
        self._refresh(IpAddress(packet.ip.src))
        self._refresh(IpAddress(next_hop))

    # -- lifetimes -----------------------------------------------------
    def _refresh(self, destination: IpAddress) -> None:
        entry = self.table.entry_for(destination)
        if entry is None or not entry.valid:
            return
        self._expires[destination] = self.sim.now + self.config.active_route_lifetime
        # Refreshing only pushes deadlines later, so an already-armed timer
        # stays correct: at worst it wakes early, finds nothing expired and
        # re-arms at the new minimum.  Keeping this O(1) matters — it runs
        # three times per forwarded data packet per hop.
        if not self._expiry_timer.running:
            self._rearm_expiry()

    def _rearm_expiry(self) -> None:
        if not self._expires:
            self._expiry_timer.cancel()
            return
        deadline = min(self._expires.values())
        self._expiry_timer.start(max(0.0, deadline - self.sim.now))

    def _on_expiry(self) -> None:
        now = self.sim.now
        expired = sorted(destination for destination, deadline
                         in self._expires.items() if deadline <= now + 1e-12)
        for destination in expired:
            entry = self.table.entry_for(destination)
            if entry is not None and entry.valid:
                self._invalidate(entry, entry.sequence + 1)
                self.route_expirations += 1
        self._rearm_expiry()

    def _invalidate(self, entry: RouteEntry, sequence: int) -> None:
        self.table.install(RouteEntry(entry.destination, entry.next_hop,
                                      INFINITE_METRIC, sequence))
        self._expires.pop(entry.destination, None)
        self.route_changes += 1

    # ------------------------------------------------------------------
    # Link events from neighbor discovery
    # ------------------------------------------------------------------
    def _on_neighbor_down(self, neighbor: IpAddress) -> None:
        lost: List[Tuple[int, int]] = []
        for entry in self.table.entries():
            if not entry.valid or entry.next_hop != neighbor:
                continue
            new_sequence = entry.sequence + 1
            self._invalidate(entry, new_sequence)
            self.route_breaks += 1
            lost.append((entry.destination.value, new_sequence))
        if lost:
            self._broadcast_rerr(lost)
        self._rearm_expiry()

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """Flat headline statistics (reports and tests)."""
        return {
            "rreqs_sent": self.rreqs_sent,
            "rreqs_forwarded": self.rreqs_forwarded,
            "rreps_sent": self.rreps_sent,
            "rreps_forwarded": self.rreps_forwarded,
            "rerrs_sent": self.rerrs_sent,
            "discoveries_started": self.discoveries_started,
            "discoveries_completed": self.discoveries_completed,
            "discoveries_failed": self.discoveries_failed,
            "route_changes": self.route_changes,
            "route_breaks": self.route_breaks,
            "route_expirations": self.route_expirations,
            "valid_routes": len(self.table),
            "neighbors": len(self.discovery),
            "hellos_sent": self.discovery.hellos_sent,
        }

    def _collect_metrics(self, registry) -> None:
        """Snapshot-time collector: the router summary as per-node gauges."""
        for key, value in self.summary().items():
            if isinstance(value, (int, float)):
                registry.set_gauge(f"aodv.{key}", value, node=self.name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<AodvRouter {self.name} routes={len(self.table)} "
                f"pending={len(self._pending)} seq={self._own_sequence}>")
