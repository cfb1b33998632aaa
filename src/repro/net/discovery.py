"""HELLO-based neighbor discovery.

The paper's testbed never needs to discover anything: every node is placed
within radio range of every other node and routes are installed statically
(Section 5).  The mobility subsystem broke that assumption — nodes drift out
of range mid-run — so this module supplies the missing liveness primitive: a
:class:`NeighborDiscovery` instance per node broadcasts small, periodically
jittered HELLO beacons **through the real MAC**.  Beacons therefore contend
for the medium, ride inside aggregated frames under the UA/BA policies, and
are lost to collisions and fading exactly like data traffic; a neighbor whose
beacons stop arriving is *expired* after a hold time and a link-down event is
delivered to whoever registered for it (the DSDV and AODV control planes in
:mod:`repro.net.dynamic_routing` and :mod:`repro.net.on_demand`).

Design notes:

* HELLOs are ordinary broadcast :class:`~repro.net.packet.Packet` objects with
  IP protocol ``"hello"``; the :class:`~repro.net.routing.ForwardingEngine`
  dispatches them to the handler this class registers, so no special-casing
  exists anywhere in the forwarding path.
* Beacon jitter and all other randomness come from a dedicated per-node
  stream (``discovery.<name>``) derived from the simulator's root seed, so
  attaching discovery never perturbs any other component's random sequence
  and same-seed runs stay byte-identical.
* Expiry is event-driven: a single timer is always armed for the earliest
  possible expiry instant, so neighbor-down latency is bounded by the hold
  time itself, not by any polling granularity.
* Any received control packet can refresh liveness (:meth:`heard`): the DSDV
  and AODV routers call it for their control packets, matching the common
  optimisation where other evidence of a link substitutes for a missed
  beacon.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional

from repro.errors import ConfigurationError
from repro.mac.addresses import MacAddress
from repro.net.address import IpAddress
from repro.net.packet import IpHeader, Packet
from repro.net.routing import BROADCAST_IP
from repro.sim.simulator import Simulator
from repro.sim.timer import PeriodicTimer, Timer

#: IP protocol tag carried by HELLO beacons.
HELLO_PROTOCOL = "hello"

#: Each beacon or advertisement period is multiplied by
#: ``1 + uniform(-JITTER_FRACTION, +JITTER_FRACTION)`` so nodes with the same
#: nominal interval never phase-lock.
JITTER_FRACTION = 0.1

#: A neighbor is expired after this many nominal HELLO intervals of silence
#: (3.5 tolerates two consecutive lost beacons plus jitter).
HOLD_INTERVALS = 3.5

#: HELLO payload size in bytes (sender address + sequence + padding).
HELLO_PAYLOAD_BYTES = 20

#: Callback signature for link events: ``callback(neighbor_ip)``.
NeighborCallback = Callable[[IpAddress], None]


def require_positive_seconds(name: str, value: object) -> float:
    """Return ``value`` if it is a positive, finite number of seconds.

    Routing intervals and lifetimes can arrive from a campaign ``--set``
    override as any Python literal, so anything else (zero, a negative,
    infinity, NaN, a bool, a string, ``None``) raises
    :class:`~repro.errors.ConfigurationError` naming the setting.
    """
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not 0.0 < value < math.inf):
        raise ConfigurationError(
            f"{name} must be a positive, finite number of seconds, got {value!r}")
    return value


def rejitter(timer: PeriodicTimer, base_period: float, rng) -> None:
    """Re-draw a periodic timer's next period around its nominal value.

    Shared by HELLO beaconing, DSDV advertisements and flooding so all of
    them desynchronise identically: each period is
    ``base * (1 + uniform(-JITTER_FRACTION, +JITTER_FRACTION))``.
    """
    timer.period = base_period * (1.0 + rng.uniform(-JITTER_FRACTION,
                                                    JITTER_FRACTION))


class NeighborDiscovery:
    """Maintains the live neighbor set of one node via HELLO beacons."""

    def __init__(self, sim: Simulator, network, hello_interval: float,
                 name: Optional[str] = None) -> None:
        self.sim = sim
        self.network = network
        self.hello_interval = require_positive_seconds("hello_interval",
                                                       hello_interval)
        #: Silence (seconds) after which a neighbor is declared down.
        self.hold_time = HOLD_INTERVALS * hello_interval
        self.address = IpAddress(network.address)
        self.name = name or f"hello-{self.address}"
        self._rng = sim.random.stream(f"discovery.{self.name}")
        #: Live neighbors → simulated time they were last heard.
        self._last_heard: Dict[IpAddress, float] = {}
        self._up_callbacks: List[NeighborCallback] = []
        self._down_callbacks: List[NeighborCallback] = []
        self._stop_time: Optional[float] = None
        self._stopped = False
        self._beacon = PeriodicTimer(sim, hello_interval, self._emit,
                                     priority=Simulator.PRIORITY_NET,
                                     name=f"{self.name}.beacon")
        self._expiry = Timer(sim, self._expire, priority=Simulator.PRIORITY_NET,
                             name=f"{self.name}.expiry")
        # statistics
        self.hellos_sent = 0
        self.hellos_received = 0
        self.neighbor_up_events = 0
        self.neighbor_down_events = 0
        sim.metrics.register_collector(self._collect_metrics)
        network.register_handler(HELLO_PROTOCOL, self._on_hello)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self, stop_time: Optional[float] = None) -> None:
        """Begin beaconing; the first HELLO is jittered to desynchronise nodes.

        ``stop_time`` bounds beaconing (and expiry sweeps) so runs whose
        traffic drains do not keep the event queue alive to the horizon.
        Neighbors heard before a :meth:`stop` still expire after a restart.
        """
        self._stop_time = stop_time
        self._stopped = False
        self._beacon.start(self._rng.uniform(0.0, self.hello_interval))
        self._rearm_expiry()

    def stop(self) -> None:
        """Stop beaconing and liveness processing entirely.

        Also makes :meth:`heard` inert: a packet already in flight when the
        protocol stops must not re-arm the expiry timer, or link-down events
        would keep firing (and the event queue stay alive) up to a hold time
        past the stop.
        """
        self._stopped = True
        self._beacon.stop()
        self._expiry.cancel()

    @property
    def running(self) -> bool:
        """True while beacons are being emitted."""
        return self._beacon.running

    # ------------------------------------------------------------------
    # Event registration
    # ------------------------------------------------------------------
    def on_neighbor_up(self, callback: NeighborCallback) -> None:
        """Register a callback fired when a new neighbor is first heard."""
        self._up_callbacks.append(callback)

    def on_neighbor_down(self, callback: NeighborCallback) -> None:
        """Register a callback fired when a neighbor expires (link down)."""
        self._down_callbacks.append(callback)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._last_heard)

    # ------------------------------------------------------------------
    # Beacon emission
    # ------------------------------------------------------------------
    def _emit(self) -> None:
        if self._stop_time is not None and self.sim.now > self._stop_time:
            self.stop()
            return
        packet = Packet(
            ip=IpHeader(src=self.address, dst=BROADCAST_IP,
                        protocol=HELLO_PROTOCOL, ttl=1),
            payload_bytes=HELLO_PAYLOAD_BYTES, created_at=self.sim.now,
            annotations={"hello_seq": self.hellos_sent})
        self.hellos_sent += 1
        self.network.send(packet)
        rejitter(self._beacon, self.hello_interval, self._rng)

    # ------------------------------------------------------------------
    # Beacon reception and liveness
    # ------------------------------------------------------------------
    def _on_hello(self, packet: Packet, source_mac: MacAddress) -> None:
        self.hellos_received += 1
        self.heard(packet.ip.src)

    def heard(self, ip: IpAddress) -> None:
        """Refresh liveness for ``ip`` (beacon or any control-plane evidence)."""
        if self._stopped:
            return
        ip = IpAddress(ip)
        if ip == self.address:
            return
        known = ip in self._last_heard
        self._last_heard[ip] = self.sim.now
        if not known:
            self.neighbor_up_events += 1
            tracer = self.sim.tracer
            if tracer.enabled:
                tracer.emit(self.name, "discovery", "neighbor_up", ip=str(ip))
            for callback in list(self._up_callbacks):
                callback(ip)
        self._rearm_expiry()

    def _rearm_expiry(self) -> None:
        if not self._last_heard:
            self._expiry.cancel()
            return
        deadline = min(self._last_heard.values()) + self.hold_time
        self._expiry.start(max(0.0, deadline - self.sim.now))

    def _expire(self) -> None:
        now = self.sim.now
        hold = self.hold_time
        expired = sorted(ip for ip, last_heard in self._last_heard.items()
                         if now - last_heard >= hold - 1e-12)
        for ip in expired:
            del self._last_heard[ip]
            self.neighbor_down_events += 1
            tracer = self.sim.tracer
            if tracer.enabled:
                tracer.emit(self.name, "discovery", "neighbor_down", ip=str(ip))
            for callback in list(self._down_callbacks):
                callback(ip)
        self._rearm_expiry()

    def _collect_metrics(self, registry) -> None:
        """Snapshot-time collector: HELLO and neighbor totals as gauges."""
        registry.set_gauge("discovery.hellos_sent", self.hellos_sent, node=self.name)
        registry.set_gauge("discovery.hellos_received", self.hellos_received,
                           node=self.name)
        registry.set_gauge("discovery.neighbors", len(self._last_heard), node=self.name)
        registry.set_gauge("discovery.neighbor_up_events", self.neighbor_up_events,
                           node=self.name)
        registry.set_gauge("discovery.neighbor_down_events",
                           self.neighbor_down_events, node=self.name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<NeighborDiscovery {self.name} neighbors={len(self._last_heard)}>"
