"""The routing table and packet forwarding.

The paper's testbed forces its 2-hop, 3-hop and star topologies with static
routes (Section 5) because every node is within radio range of every other
node.  Every node forwards through one :class:`RoutingTable` of
:class:`RouteEntry` records: static routes are metric-1 entries, and the
DSDV and AODV control planes of the mobile scenarios
(:mod:`repro.net.dynamic_routing`, :mod:`repro.net.on_demand`) install and
withdraw sequence-numbered entries in the same table.  The
:class:`ForwardingEngine` is the per-node network layer that glues the MAC
to the transport protocols: it delivers local traffic up, forwards transit
traffic to the next hop and hands broadcast (flooding) traffic to the
registered handler.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.errors import RoutingError
from repro.mac.addresses import BROADCAST_MAC, MacAddress
from repro.net.address import IpAddress
from repro.net.packet import Packet
from repro.sim.simulator import Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.mac.dcf import AggregatingMac

#: Handler signature for packets delivered to the local node:
#: ``handler(packet, source_mac)``.
PacketHandler = Callable[[Packet, MacAddress], None]

#: Hook signature for packets that have no route: ``handler(packet) -> bool``.
#: Returning True means the packet was consumed (e.g. buffered while an
#: on-demand protocol discovers a route) instead of being dropped.
NoRouteHandler = Callable[[Packet], bool]

#: Observer signature for successfully routed unicast packets:
#: ``observer(packet, next_hop_ip)``.  On-demand routing uses this to refresh
#: active-route lifetimes from forwarded data.
ForwardObserver = Callable[[Packet, IpAddress], None]

#: The IP broadcast address used by flooding traffic.
BROADCAST_IP = IpAddress("255.255.255.255")


#: Metric denoting "unreachable" (hop counts are far below this in practice).
INFINITE_METRIC = 16

#: Sequence number of statically installed entries; any protocol update
#: carries a non-negative sequence number and therefore supersedes it.
STATIC_SEQUENCE = -1


class RouteEntry:
    """One routing-table entry.

    Entries are never mutated: the control planes replace them.  A withdrawn
    route keeps its entry (and the sequence number of the break) with an
    infinite metric.
    """

    __slots__ = ("destination", "next_hop", "metric", "sequence")

    def __init__(self, destination: IpAddress, next_hop: IpAddress,
                 metric: int, sequence: int) -> None:
        self.destination = destination
        self.next_hop = next_hop
        self.metric = metric
        self.sequence = sequence

    @property
    def valid(self) -> bool:
        """True while the route can actually forward packets."""
        return self.metric < INFINITE_METRIC

    def __str__(self) -> str:
        state = f"{self.metric} hops" if self.valid else "unreachable"
        return (f"{self.destination} via {self.next_hop} ({state}, "
                f"seq {self.sequence})")


class RoutingTable:
    """Destination → :class:`RouteEntry` map shared by every routing mode.

    :meth:`next_hop` (the forwarding plane's only call) and :meth:`has_route`
    consider *valid* entries only, so a withdrawn route behaves exactly like
    a route that was never installed.  Static routes enter through
    :meth:`add_route`; the DSDV and AODV control planes install and withdraw
    entries through :meth:`install`.
    """

    def __init__(self) -> None:
        self._entries: Dict[IpAddress, RouteEntry] = {}

    def add_route(self, destination: IpAddress, next_hop: IpAddress) -> None:
        """Install a static route (superseded by any protocol update)."""
        destination = IpAddress(destination)
        self._entries[destination] = RouteEntry(destination, IpAddress(next_hop),
                                                1, STATIC_SEQUENCE)

    def next_hop(self, destination: IpAddress) -> IpAddress:
        """Next hop towards ``destination`` (raises :class:`RoutingError` if none)."""
        if type(destination) is not IpAddress:
            destination = IpAddress(destination)
        entry = self._entries.get(destination)
        if entry is not None and entry.metric < INFINITE_METRIC:
            return entry.next_hop
        raise RoutingError(f"no route to {destination}")

    def has_route(self, destination: IpAddress) -> bool:
        """True when a valid route exists for ``destination``."""
        entry = self._entries.get(IpAddress(destination))
        return entry is not None and entry.valid

    def entry_for(self, destination: IpAddress) -> Optional[RouteEntry]:
        """The stored entry (valid or withdrawn) for ``destination``."""
        return self._entries.get(IpAddress(destination))

    def install(self, entry: RouteEntry) -> None:
        """Store ``entry`` unconditionally (the routers apply their own rules)."""
        self._entries[entry.destination] = entry

    def entries(self) -> List[RouteEntry]:
        """All entries in sorted destination order (deterministic iteration)."""
        return [self._entries[destination] for destination in sorted(self._entries)]

    def __len__(self) -> int:
        return sum(1 for entry in self._entries.values() if entry.valid)


class NeighborTable:
    """IP → MAC address resolution (a static ARP table shared by a scenario)."""

    def __init__(self) -> None:
        self._entries: Dict[IpAddress, MacAddress] = {}

    def add(self, ip: IpAddress, mac: MacAddress) -> None:
        """Register a neighbour."""
        self._entries[IpAddress(ip)] = mac

    def resolve(self, ip: IpAddress) -> MacAddress:
        """MAC address of ``ip`` (raises :class:`RoutingError` when unknown)."""
        if type(ip) is not IpAddress:
            ip = IpAddress(ip)
        if ip == BROADCAST_IP:
            return BROADCAST_MAC
        found = self._entries.get(ip)
        if found is None:
            raise RoutingError(f"no link-layer address known for {ip}")
        return found

    def __len__(self) -> int:
        return len(self._entries)


@dataclass
class ForwardingStatistics:
    """Counters kept by one forwarding engine."""

    sent_local: int = 0
    forwarded: int = 0
    delivered_local: int = 0
    delivered_broadcast: int = 0
    no_route_drops: int = 0
    no_route_buffered: int = 0
    ttl_drops: int = 0
    unhandled_protocol_drops: int = 0


class ForwardingEngine:
    """The network layer of one node."""

    def __init__(self, sim: Simulator, mac: "AggregatingMac", address: IpAddress,
                 routing_table: Optional[RoutingTable] = None,
                 neighbors: Optional[NeighborTable] = None,
                 name: Optional[str] = None) -> None:
        self.sim = sim
        self.mac = mac
        self.address = IpAddress(address)
        self.routing_table = routing_table if routing_table is not None else RoutingTable()
        self.neighbors = neighbors if neighbors is not None else NeighborTable()
        self.name = name or f"net-{address}"
        self.stats = ForwardingStatistics()
        self._handlers: Dict[str, PacketHandler] = {}
        self._no_route_handler: Optional[NoRouteHandler] = None
        self._forward_observer: Optional[ForwardObserver] = None
        sim.metrics.register_collector(self._collect_metrics)
        mac.set_receive_callback(self._on_mac_receive)

    def _collect_metrics(self, registry) -> None:
        """Snapshot-time collector: forwarding counters as per-node gauges."""
        stats = self.stats
        for key in ("sent_local", "forwarded", "delivered_local",
                    "delivered_broadcast", "no_route_drops", "no_route_buffered",
                    "ttl_drops", "unhandled_protocol_drops"):
            registry.set_gauge(f"net.{key}", getattr(stats, key), node=self.name)

    # ------------------------------------------------------------------
    # Upper-layer registration
    # ------------------------------------------------------------------
    def register_handler(self, protocol: str, handler: PacketHandler) -> None:
        """Register the local handler for packets of ``protocol`` ('tcp', 'udp', 'flood', ...)."""
        self._handlers[protocol] = handler

    def set_no_route_handler(self, handler: Optional[NoRouteHandler]) -> None:
        """Install the hook consulted before a packet becomes a no-route drop.

        On-demand routing registers itself here: a packet the handler accepts
        (returns True for) is counted as buffered, not dropped, and the
        handler becomes responsible for re-injecting or discarding it.
        """
        self._no_route_handler = handler

    def set_forward_observer(self, observer: Optional[ForwardObserver]) -> None:
        """Install the observer notified of every successfully routed unicast."""
        self._forward_observer = observer

    # ------------------------------------------------------------------
    # Transmit path
    # ------------------------------------------------------------------
    def send(self, packet: Packet) -> bool:
        """Send a locally originated packet towards ``packet.ip.dst``."""
        self.stats.sent_local += 1
        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.emit(self.name, "net", "origin", packet=packet)
        return self._route_and_enqueue(packet)

    def reinject(self, packet: Packet) -> bool:
        """Route a packet previously consumed by the no-route handler.

        Identical to :meth:`send` except the packet is not counted as locally
        originated again — it already was when it entered the stack.
        """
        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.emit(self.name, "net", "reinject", packet=packet)
        return self._route_and_enqueue(packet)

    def _route_and_enqueue(self, packet: Packet) -> bool:
        destination = packet.ip.dst
        if destination == BROADCAST_IP:
            return self.mac.enqueue(packet, BROADCAST_MAC)
        if destination == self.address:
            # Loopback: deliver immediately without touching the MAC.
            self._deliver_local(packet, self.mac.address)
            return True
        try:
            next_hop_ip = self.routing_table.next_hop(destination)
            next_hop_mac = self.neighbors.resolve(next_hop_ip)
        except RoutingError:
            tracer = self.sim.tracer
            if (self._no_route_handler is not None
                    and self._no_route_handler(packet)):
                self.stats.no_route_buffered += 1
                if tracer.enabled:
                    tracer.emit(self.name, "net", "buffer", reason="no_route", packet=packet)
                return True
            self.stats.no_route_drops += 1
            if tracer.enabled:
                tracer.emit(self.name, "net", "drop", reason="no_route", packet=packet)
            return False
        if self._forward_observer is not None:
            self._forward_observer(packet, next_hop_ip)
        return self.mac.enqueue(packet, next_hop_mac)

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------
    def _on_mac_receive(self, packet: Packet, source_mac: MacAddress) -> None:
        destination = packet.ip.dst
        tracer = self.sim.tracer
        if destination == BROADCAST_IP:
            self.stats.delivered_broadcast += 1
            if tracer.enabled:
                tracer.emit(self.name, "net", "deliver_bcast", packet=packet)
            self._dispatch(packet, source_mac)
            return
        if destination == self.address:
            self._deliver_local(packet, source_mac)
            return
        # Transit traffic: forward towards the destination.
        forwarded = packet.with_decremented_ttl()
        if forwarded.ip.ttl <= 0:
            self.stats.ttl_drops += 1
            if tracer.enabled:
                tracer.emit(self.name, "net", "drop", reason="ttl", packet=forwarded)
            return
        self.stats.forwarded += 1
        if tracer.enabled:
            tracer.emit(self.name, "net", "forward", ttl=forwarded.ip.ttl, packet=forwarded)
        self._route_and_enqueue(forwarded)

    def _deliver_local(self, packet: Packet, source_mac: MacAddress) -> None:
        self.stats.delivered_local += 1
        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.emit(self.name, "net", "deliver", packet=packet)
        self._dispatch(packet, source_mac)

    def _dispatch(self, packet: Packet, source_mac: MacAddress) -> None:
        protocol = packet.ip.protocol
        handler = self._handlers.get(protocol)
        if handler is None:
            self.stats.unhandled_protocol_drops += 1
            tracer = self.sim.tracer
            if tracer.enabled:
                tracer.emit(self.name, "net", "drop", reason="unhandled_protocol", packet=packet)
            return
        handler(packet, source_mac)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ForwardingEngine {self.address} routes={len(self.routing_table)}>"
