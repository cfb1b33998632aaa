"""Network layer: packets, addressing, static + dynamic routing, flooding.

Every node forwards through one :class:`RoutingTable` of
:class:`RouteEntry` records.  Static scenarios fill it through the topology
builders; mobile meshes built with ``routing=DsdvConfig(...)`` or
``routing=AodvConfig(...)`` have it maintained either proactively by a
:class:`DsdvRouter` (periodic sequence-numbered advertisements, see
:mod:`repro.net.dynamic_routing`) or reactively by an :class:`AodvRouter`
(on-demand RREQ/RREP discovery, see :mod:`repro.net.on_demand`), both over
:class:`NeighborDiscovery` HELLO beacons.
"""

from repro.net.packet import IpHeader, Packet, TcpHeader, UdpHeader
from repro.net.address import IpAddress
from repro.net.routing import ForwardingEngine, RouteEntry, RoutingTable
from repro.net.flooding import FloodingSource
from repro.net.discovery import NeighborDiscovery
from repro.net.dynamic_routing import DsdvConfig, DsdvRouter
from repro.net.on_demand import AodvConfig, AodvRouter

__all__ = [
    "Packet",
    "IpHeader",
    "TcpHeader",
    "UdpHeader",
    "IpAddress",
    "RoutingTable",
    "RouteEntry",
    "ForwardingEngine",
    "FloodingSource",
    "NeighborDiscovery",
    "DsdvConfig",
    "DsdvRouter",
    "AodvConfig",
    "AodvRouter",
]
