"""Outside-in instrumentation for the benchmark: host time per job and per layer.

Nothing in ``src/`` knows about this module.  It replaces public entry
points of the simulator's classes with timing wrappers for the duration of
one pass and puts the original function objects back afterwards
(:meth:`Probe.uninstall`).  Wrappers must be installed before any scenario
is built, because receive callbacks, handlers and timers capture bound
methods when their objects are constructed.

Two levels share one :class:`Probe`:

* untraced (``traced=False``): only ``Simulator.__init__`` and
  ``Simulator.run`` are wrapped, to split each job's host time into set-up
  (construction to ``run``) and the event loop, and to count events.  The
  cost is a few microseconds per simulator, so end-to-end timings are taken
  at this level.
* traced (``traced=True``): every entry point in the layer table of
  ``perfbench/README.md`` is spanned.  A stopwatch stack turns spans into
  exclusive (self) time per layer: a span's self time is its duration minus
  the time covered by the spans it encloses.  Each scheduled callback is
  booked to the layer of the module that owns it, and a ``Timer`` or
  ``PeriodicTimer`` expiry to the layer of its target, not to ``sim``.
  Everything from a ``Simulator``'s construction up to its ``run`` call is
  one ``topology`` span.
"""

from __future__ import annotations

import functools
import gc
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.channel import propagation
from repro.channel.medium import WirelessChannel
from repro.channel.spatial import UniformGridIndex
from repro.core.aggregator import Aggregator
from repro.mac import dcf
from repro.mac.dcf import AggregatingMac
from repro.mobility.models import MobilityModel
from repro.net.routing import ForwardingEngine
from repro.node.node import Node
from repro.phy.device import Phy
from repro.sim.scheduler import Scheduler
from repro.sim.simulator import Simulator
from repro.sim.timer import PeriodicTimer, Timer
from repro.transport.tcp.connection import TcpConnection
from repro.transport.udp import UdpSocket

#: The simulated-path layers, named after the ``repro`` packages.
#: ``repro.node`` is booked to ``topology``.
LAYERS = ("sim", "channel", "phy", "mac", "core", "net", "transport", "apps",
          "mobility", "topology")

#: Buckets that refine a layer.  Their self time is part of the layer's and
#: is also reported on its own.
INDEX_BUCKET = "channel.index"
CONTROL_BUCKET = "net.ctrl"
#: Pauses of the interpreter's cyclic garbage collector.  A collection runs
#: inside whichever call allocated past the threshold, so without its own
#: bucket its time would land in that call's layer (mostly ``sim``, whose
#: ``Scheduler.push`` allocates most).  It is not a ``src/`` layer but it is
#: named host time, and it counts as attributed.
GC_BUCKET = "gc"
#: Experiment code inside a job that runs outside every layer span (result
#: assembly, parameter checks).  It is not a layer, so it counts against
#: ``trace.attributed_fraction``.
JOB_BUCKET = "job"

_PACKAGE_LAYER = {layer: layer for layer in LAYERS}
_PACKAGE_LAYER["node"] = "topology"
#: Routing control-plane modules: their self time is ``net.ctrl_self_s``.
_CONTROL_PLANE_MODULES = frozenset({
    "repro.net.discovery", "repro.net.dynamic_routing", "repro.net.on_demand"})

# Frame kinds on the stopwatch stack.
_PLAIN, _EVENT, _SETUP, _BROADCAST = 0, 1, 2, 3

perf_counter = time.perf_counter


def bucket_of_module(module: Optional[str]) -> str:
    """The bucket a callable defined in ``module`` is booked to.

    Modules outside the simulated path map to ``"?<module>"``, which no
    layer claims.
    """
    module = module or ""
    if module in _CONTROL_PLANE_MODULES:
        return CONTROL_BUCKET
    parts = module.split(".")
    if len(parts) > 1 and parts[0] == "repro" and parts[1] in _PACKAGE_LAYER:
        return _PACKAGE_LAYER[parts[1]]
    return "?" + module


def layer_of(bucket: str) -> Optional[str]:
    """The layer a bucket belongs to (``gc`` for collector pauses), or None."""
    head = bucket.split(".", 1)[0]
    return head if head in LAYERS or head == GC_BUCKET else None


class Patcher:
    """Replaces attributes and restores the exact original objects."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any]] = []

    def wrap(self, owner: Any, name: str,
             make: Callable[[Any], Callable[..., Any]]) -> None:
        """Replace ``owner.name`` (a class or module attribute) by ``make(original)``."""
        original = vars(owner)[name]
        setattr(owner, name, make(original))
        self._saved.append((owner, name, original))

    def restore(self) -> None:
        """Put every original back, most recent patch first."""
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    @property
    def saved(self) -> List[Tuple[Any, str, Any]]:
        """``(owner, name, original)`` for every live patch."""
        return list(self._saved)


class Stopwatch:
    """A stack of open spans that accumulates self time per bucket.

    A frame is ``[bucket, start, child_seconds, kind]``.  Leaving a frame
    adds its duration minus ``child_seconds`` to the bucket's self time and
    its whole duration to the parent's ``child_seconds``.
    """

    __slots__ = ("stack", "self_s", "spans", "edges")

    def __init__(self) -> None:
        self.stack: List[list] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.spans: Dict[str, int] = defaultdict(int)
        #: (parent bucket, bucket) -> spans opened there.
        self.edges: Dict[Tuple[Optional[str], str], int] = defaultdict(int)

    def enter(self, bucket: str, kind: int = _PLAIN) -> None:
        stack = self.stack
        self.edges[(stack[-1][0] if stack else None, bucket)] += 1
        stack.append([bucket, perf_counter(), 0.0, kind])

    def leave(self) -> None:
        now = perf_counter()
        stack = self.stack
        bucket, start, child, _ = stack.pop()
        elapsed = now - start
        self.self_s[bucket] += elapsed - child
        self.spans[bucket] += 1
        if stack:
            stack[-1][2] += elapsed

    def unwind(self, depth: int) -> None:
        """Leave frames until ``depth`` remain (after an exception or a stop)."""
        while len(self.stack) > depth:
            self.leave()

    def span(self, bucket: str, fn: Callable[..., Any], kind: int = _PLAIN,
             calls: Optional[Counter] = None,
             key: str = "") -> Callable[..., Any]:
        """``fn`` wrapped in a span of ``bucket``, counted in ``calls[key]`` if given."""
        stack = self.stack
        self_s = self.self_s
        spans = self.spans
        edges = self.edges

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if calls is not None:
                calls[key] += 1
            edges[(stack[-1][0] if stack else None, bucket)] += 1
            frame = [bucket, perf_counter(), 0.0, kind]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - frame[1]
                stack.pop()
                self_s[bucket] += elapsed - frame[2]
                spans[bucket] += 1
                if stack:
                    stack[-1][2] += elapsed

        spanned.span_bucket = bucket
        return spanned


class JobTotals:
    """Host time and counters of one job (one runner or experiment call)."""

    __slots__ = ("setup_s", "loop_s", "events", "counts", "self_s", "wall_s")

    def __init__(self) -> None:
        self.setup_s = 0.0
        self.loop_s = 0.0
        self.events = 0
        self.counts: Counter = Counter()
        self.self_s: Dict[str, float] = {}
        self.wall_s = 0.0


def _counters_of(nodes: List[Any]) -> Counter:
    """Public counters of a simulator's nodes, read after its run."""
    counts: Counter = Counter()
    channels: Dict[int, Any] = {}
    for node in nodes:
        phy = node.phy
        counts["phy.frames_received"] += phy.frames_received
        counts["phy.frames_collided"] += phy.frames_collided
        stats = node.mac.stats
        counts["mac.data_tx"] += stats.data_transmissions
        counts["mac.retransmissions"] += stats.retransmissions
        counts["mac.queue_drops"] += stats.queue_drops
        counts["core.classified_acks"] += stats.classified_ack_subframes_sent
        counts["net.ctrl_packets"] += stats.routing_subframes_sent
        counts["net.forwarded"] += node.network.stats.forwarded
        for connection in node.tcp.connections.values():
            counts["tcp.segments"] += connection.segments_sent
            counts["tcp.retransmits"] += connection.retransmitted_segments
        channels[id(node.channel)] = node.channel
    for channel in channels.values():
        counts["channel.candidates"] += channel.total_candidates
        counts["channel.culled"] += channel.total_culled
    return counts


class Probe:
    """Instruments the simulator for one pass; see the module docstring."""

    def __init__(self, traced: bool) -> None:
        self.traced = traced
        self.patcher = Patcher()
        self.watch = Stopwatch()
        #: Wrapper call counts (traced only).
        self.calls: Counter = Counter()
        #: Buckets that scheduled callbacks were booked to (traced only).
        self.event_buckets: Counter = Counter()
        self._job: Optional[JobTotals] = None
        self._job_start = 0.0
        self._job_depth = 0
        self._self_before: Dict[str, float] = {}
        self._created: Dict[int, float] = {}
        # Nodes built for the newest simulator, and the counters read from
        # them after its last run.
        self._group: List[Any] = []
        self._group_counts: Counter = Counter()
        self._layer_cache: Dict[type, str] = {}

    # ------------------------------------------------------------------
    # Jobs
    # ------------------------------------------------------------------
    def begin_job(self) -> None:
        """Start the books of one job."""
        self._job = JobTotals()
        self._created.clear()
        self._self_before = dict(self.watch.self_s)
        self._job_depth = len(self.watch.stack)
        if self.traced:
            self.watch.enter(JOB_BUCKET)
        self._job_start = perf_counter()

    def end_job(self) -> JobTotals:
        """Close the job's books (also after the job raised)."""
        job = self._job
        job.wall_s = perf_counter() - self._job_start
        if self.traced:
            self.watch.unwind(self._job_depth)
            self._close_group()
            before = self._self_before
            job.self_s = {bucket: seconds - before.get(bucket, 0.0)
                          for bucket, seconds in self.watch.self_s.items()}
        self._created.clear()
        self._job = None
        return job

    def _close_group(self) -> None:
        self._job.counts.update(self._group_counts)
        self._group = []
        self._group_counts = Counter()

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap the simulator's entry points (before any scenario is built)."""
        self.patcher.wrap(Simulator, "__init__", self._wrap_sim_init)
        self.patcher.wrap(Simulator, "run", self._wrap_sim_run)
        if self.traced:
            self._install_layer_spans()
            gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        """Restore every original function object."""
        self.patcher.restore()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase: str, info: Dict[str, int]) -> None:
        """Book each collector pause to the ``gc`` bucket."""
        if phase == "start":
            self.calls["gc.collections"] += 1
            self.watch.enter(GC_BUCKET)
        elif self.watch.stack and self.watch.stack[-1][0] == GC_BUCKET:
            self.watch.leave()

    def _wrap_sim_init(self, original: Callable[..., Any]) -> Callable[..., Any]:
        created = self._created
        watch = self.watch
        traced = self.traced

        @functools.wraps(original)
        def init(sim, *args, **kwargs):
            created[id(sim)] = perf_counter()
            if traced:
                self._close_group()
                watch.enter("topology", _SETUP)
            original(sim, *args, **kwargs)

        return init

    def _wrap_sim_run(self, original: Callable[..., Any]) -> Callable[..., Any]:
        created = self._created
        watch = self.watch
        stack = watch.stack
        traced = self.traced

        @functools.wraps(original)
        def run(sim, *args, **kwargs):
            job = self._job
            start = perf_counter()
            constructed = created.pop(id(sim), None)
            if constructed is not None:
                job.setup_s += start - constructed
            if traced:
                if stack and stack[-1][3] == _SETUP:
                    watch.leave()
                depth = len(stack)
                watch.enter("sim")
            before = sim.events_processed
            try:
                return original(sim, *args, **kwargs)
            finally:
                if traced:
                    watch.unwind(depth)
                job.loop_s += perf_counter() - start
                job.events += sim.events_processed - before
                if traced:
                    self._group_counts = _counters_of(self._group)

        return run

    def _install_layer_spans(self) -> None:
        wrap = self.patcher.wrap
        span = self.watch.span
        calls = self.calls

        def spans(bucket: str, key: Optional[str] = None, kind: int = _PLAIN):
            """Make a wrapper spanning ``bucket``, counting calls under ``key``."""
            return lambda original: span(bucket, original, kind,
                                         calls if key else None, key or "")

        # sim: scheduling and the per-event dispatch.
        wrap(Scheduler, "push", spans("sim", "sim.scheduled"))
        wrap(Scheduler, "cancel", self._wrap_cancel)
        wrap(Scheduler, "pop_next", self._wrap_pop_next)

        # channel: the medium, its propagation models and the grid index.
        wrap(WirelessChannel, "broadcast", spans("channel", "channel.transmissions", _BROADCAST))
        for model in vars(propagation).values():
            if (isinstance(model, type) and model.__module__ == propagation.__name__
                    and not getattr(model, "_is_protocol", False)):
                for name in ("path_loss_between", "path_loss_db"):
                    if name in vars(model):
                        wrap(model, name, self._wrap_path_loss)
        wrap(UniformGridIndex, "candidates", spans(INDEX_BUCKET))

        # phy
        wrap(Phy, "send", spans("phy", "phy.tx_frames"))
        wrap(Phy, "begin_reception", spans("phy", "phy.rx_attempts"))
        wrap(Phy, "end_reception", spans("phy"))

        # mac: enqueue from the network layer and the PhyListener upcalls.
        wrap(AggregatingMac, "enqueue", spans("mac", "mac.enqueued"))
        for upcall in ("on_carrier_busy", "on_carrier_idle", "on_frame_received",
                       "on_transmit_complete"):
            wrap(AggregatingMac, upcall, spans("mac"))
        wrap(AggregatingMac, "set_receive_callback", self._wrap_callback_registration)

        # core: aggregate building and the receive rules as the MAC binds them.
        wrap(Aggregator, "build", self._wrap_build)
        wrap(dcf, "process_received_aggregate", spans("core"))

        # net: sends from above, re-injection after discovery, and every
        # handler an upper layer or router registers.
        wrap(ForwardingEngine, "send", spans("net"))
        wrap(ForwardingEngine, "reinject", spans("net"))
        wrap(ForwardingEngine, "register_handler", self._wrap_callback_registration)

        # transport, entered from the applications.
        wrap(UdpSocket, "send_to", spans("transport", "apps.udp_sends"))
        wrap(TcpConnection, "send", spans("transport", "apps.tcp_writes"))

        # mobility: every position_at a model class defines.
        pending = [MobilityModel]
        while pending:
            model = pending.pop()
            pending.extend(model.__subclasses__())
            if "position_at" in vars(model):
                wrap(model, "position_at", spans("mobility", "mobility.position_queries"))

        # topology: node construction (the rest of set-up is the setup span).
        wrap(Node, "__init__", self._wrap_node_init)

    # ------------------------------------------------------------------
    # Traced wrappers with extra bookkeeping
    # ------------------------------------------------------------------
    def _wrap_cancel(self, original: Callable[..., Any]) -> Callable[..., Any]:
        spanned = self.watch.span("sim", original)
        calls = self.calls

        @functools.wraps(original)
        def cancel(scheduler, handle):
            if handle.active:
                calls["sim.cancelled"] += 1
            return spanned(scheduler, handle)

        return cancel

    def _wrap_pop_next(self, original: Callable[..., Any]) -> Callable[..., Any]:
        """Close the previous event's span, open one for the next event.

        The run loop calls the popped event's callback right after this
        returns, so the span covers exactly that callback (plus the loop's
        few bookkeeping statements).  A callback that is already a spanned
        method (``Phy.begin_reception``, ...) gets no second span.
        """
        watch = self.watch
        stack = watch.stack
        resolve = self._bucket_of_callback
        event_buckets = self.event_buckets

        @functools.wraps(original)
        def pop_next(scheduler, until=None):
            if stack and stack[-1][3] == _EVENT:
                watch.leave()
            event = original(scheduler, until)
            if event is not None:
                callback = event.callback
                bucket = getattr(getattr(callback, "__func__", None), "span_bucket", None)
                if bucket is None:
                    bucket = resolve(callback)
                    watch.enter(bucket, _EVENT)
                # else: the callback is a spanned method and opens its own span.
                event_buckets[bucket] += 1
            return event

        return pop_next

    def _bucket_of_callback(self, callback: Any) -> str:
        """Layer of a scheduled callback's owner; timers resolve to their target."""
        while True:
            owner = getattr(callback, "__self__", None)
            if owner is None:
                if isinstance(callback, functools.partial):
                    callback = callback.func
                    continue
                return bucket_of_module(getattr(callback, "__module__", None))
            cls = type(owner)
            if cls is Timer or cls is PeriodicTimer:
                callback = owner._callback
                continue
            bucket = self._layer_cache.get(cls)
            if bucket is None:
                bucket = self._layer_cache[cls] = bucket_of_module(cls.__module__)
            return bucket

    def _wrap_path_loss(self, original: Callable[..., Any]) -> Callable[..., Any]:
        """Propagation calls made directly by a broadcast are link-budget memo misses."""
        spanned = self.watch.span("channel", original)
        stack = self.watch.stack
        calls = self.calls

        @functools.wraps(original)
        def path_loss(*args, **kwargs):
            if stack and stack[-1][3] == _BROADCAST:
                calls["channel.memo_misses"] += 1
            return spanned(*args, **kwargs)

        return path_loss

    def _wrap_build(self, original: Callable[..., Any]) -> Callable[..., Any]:
        spanned = self.watch.span("core", original)
        calls = self.calls

        @functools.wraps(original)
        def build(*args, **kwargs):
            aggregate = spanned(*args, **kwargs)
            if not aggregate.empty:
                calls["core.aggregates"] += 1
                calls["core.subframes"] += aggregate.subframe_count
            return aggregate

        return build

    def _wrap_callback_registration(self, original: Callable[..., Any]) -> Callable[..., Any]:
        """Span every callable registered as a packet handler or receive callback."""
        span = self.watch.span
        resolve = self._bucket_of_callback

        @functools.wraps(original)
        def register(receiver, *args):
            *head, callback = args
            return original(receiver, *head, span(resolve(callback), callback))

        return register

    def _wrap_node_init(self, original: Callable[..., Any]) -> Callable[..., Any]:
        spanned = self.watch.span("topology", original, calls=self.calls,
                                  key="topology.nodes_built")

        @functools.wraps(original)
        def init(node, *args, **kwargs):
            spanned(node, *args, **kwargs)
            self._group.append(node)

        return init


# ---------------------------------------------------------------------------
# Per-layer metrics and reports
# ---------------------------------------------------------------------------

def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def pass_self_times(records) -> Counter:
    """Self seconds per bucket, summed over a traced pass's jobs."""
    self_s: Counter = Counter()
    for record in records:
        self_s.update(record.totals.self_s)
    return self_s


def layer_metrics(probe: Probe, traced, reference) -> Dict[str, float]:
    """Every per-layer metric of a traced pass.

    ``traced`` and ``reference`` are the traced pass and the untraced pass
    of the same jobs.  Counts come from wrapper calls (``probe.calls``) and
    from the public counters read after each simulator's run.
    """
    self_s = pass_self_times(traced.records)
    counts: Counter = Counter()
    for record in traced.records:
        counts.update(record.totals.counts)
    calls = probe.calls

    def own(layer: str) -> float:
        return float(sum(seconds for bucket, seconds in self_s.items()
                         if layer_of(bucket) == layer))

    scheduled = calls["sim.scheduled"]
    transmissions = calls["channel.transmissions"]
    candidates = counts["channel.candidates"]
    received = counts["phy.frames_received"]
    enqueued = calls["mac.enqueued"]
    data_tx = counts["mac.data_tx"]
    aggregates = calls["core.aggregates"]
    nodes = calls["topology.nodes_built"]
    attributed = sum(seconds for bucket, seconds in self_s.items() if layer_of(bucket))
    return {
        "sim.self_s": own("sim"),
        "sim.events": traced.events,
        "sim.scheduled": scheduled,
        "sim.cancelled": calls["sim.cancelled"],
        "sim.cancel_ratio": _ratio(calls["sim.cancelled"], scheduled),
        "sim.us_per_event": 1e6 * _ratio(reference.loop_s, reference.events),
        "channel.self_s": own("channel"),
        "channel.index_self_s": float(self_s[INDEX_BUCKET]),
        "channel.transmissions": transmissions,
        "channel.candidates_per_tx": _ratio(candidates, transmissions),
        "channel.cull_ratio": _ratio(counts["channel.culled"], candidates),
        "channel.memo_hit_ratio": (1.0 - _ratio(calls["channel.memo_misses"], candidates)
                                   if candidates else 0.0),
        "phy.self_s": own("phy"),
        "phy.tx_frames": calls["phy.tx_frames"],
        "phy.rx_attempts": calls["phy.rx_attempts"],
        "phy.rx_ok_ratio": _ratio(received - counts["phy.frames_collided"], received),
        "mac.self_s": own("mac"),
        "mac.enqueued": enqueued,
        "mac.data_tx": data_tx,
        "mac.retry_ratio": _ratio(counts["mac.retransmissions"], data_tx),
        "mac.queue_drop_ratio": _ratio(counts["mac.queue_drops"], enqueued),
        "core.self_s": own("core"),
        "core.aggregates": aggregates,
        "core.subframes_per_aggregate": _ratio(calls["core.subframes"], aggregates),
        "core.classified_acks": counts["core.classified_acks"],
        "net.self_s": own("net"),
        "net.ctrl_self_s": float(self_s[CONTROL_BUCKET]),
        "net.forwarded": counts["net.forwarded"],
        "net.ctrl_packets": counts["net.ctrl_packets"],
        "transport.self_s": own("transport"),
        "transport.segments": counts["tcp.segments"] + calls["apps.udp_sends"],
        "transport.retransmits": counts["tcp.retransmits"],
        "apps.self_s": own("apps"),
        "apps.packets_sent": calls["apps.udp_sends"] + calls["apps.tcp_writes"],
        "mobility.self_s": own("mobility"),
        "mobility.position_queries": calls["mobility.position_queries"],
        "topology.self_s": own("topology"),
        "topology.nodes_built": nodes,
        "topology.ms_per_node": 1e3 * _ratio(own("topology"), nodes),
        "gc.self_s": float(self_s[GC_BUCKET]),
        "gc.collections": calls["gc.collections"],
        "trace.attributed_fraction": _ratio(attributed, traced.wall_s),
        "trace.overhead_ratio": _ratio(traced.wall_s, reference.wall_s),
    }


def format_layer_table(probe: Probe, traced) -> str:
    """Self time, share of the traced pass and callers, per bucket."""
    self_s = pass_self_times(traced.records)
    callers: Dict[str, Counter] = defaultdict(Counter)
    for (parent, bucket), spans in probe.watch.edges.items():
        callers[bucket][parent or "-"] += spans
    lines = [f"  {'bucket':<14} {'self_s':>9} {'share':>7} {'spans':>9}  entered from"]
    for bucket, seconds in sorted(self_s.items(), key=lambda item: -item[1]):
        entered = ", ".join(f"{parent} {count}" for parent, count
                            in callers[bucket].most_common(3))
        lines.append(f"  {bucket:<14} {seconds:>9.4f} {_ratio(seconds, traced.wall_s):>7.1%}"
                     f" {probe.watch.spans.get(bucket, 0):>9}  {entered}")
    return "\n".join(lines)


def format_job_table(traced) -> str:
    """Self milliseconds per (job, layer) of a traced pass."""
    columns = LAYERS + (GC_BUCKET, "other")
    lines = ["  " + f"{'job (self ms)':<22}" + "".join(f"{name:>9}" for name in columns)]
    for record in traced.records:
        per_layer: Counter = Counter()
        for bucket, seconds in record.totals.self_s.items():
            per_layer[layer_of(bucket) or "other"] += seconds
        lines.append("  " + f"{record.job_id:<22}"
                     + "".join(f"{1e3 * per_layer[name]:>9.1f}" for name in columns))
    return "\n".join(lines)
