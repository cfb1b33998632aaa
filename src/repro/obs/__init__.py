"""Observability: metrics, timeline/pcap export, journeys, live progress.

The package is deliberately layered so the simulator core can depend on it
without cycles: nothing here imports from ``repro.sim`` (or any protocol
layer) at runtime.  ``repro.obs.cli`` pulls in the experiment registry and
is therefore *not* re-exported — import it explicitly.

Every simulator reports through one channel, its
:class:`~repro.sim.trace.Tracer`; the first four modules below hold its
listeners, each building one export from the records it understands:

* :mod:`repro.obs.metrics` — hierarchical Counter/Gauge/Histogram registry
  with label sets and deterministic snapshots;
* :mod:`repro.obs.timeline` — the timeline's record store and its Chrome
  trace-event (Perfetto) export;
* :mod:`repro.obs.capture` — JSONL frame capture at the PHY/MAC boundary;
* :mod:`repro.obs.journey` — per-packet journey tracing with latency
  waterfalls and the packet-conservation audit;
* :mod:`repro.obs.session` — the ambient :func:`~repro.obs.session.observe`
  context manager that attaches those listeners to every simulator created
  inside it;
* :mod:`repro.obs.progress` — live per-job campaign progress reporting.
"""

from repro.obs.capture import FrameCapture
from repro.obs.journey import (
    JourneyRecorder,
    conservation_audit,
    flow_summaries,
    journey_waterfall,
)
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.obs.progress import ProgressReporter
from repro.obs.session import ObsConfig, ObsSession, observe
from repro.obs.timeline import TraceStore, chrome_trace_document, export_chrome_trace

__all__ = [
    "FrameCapture",
    "JourneyRecorder",
    "MetricsRegistry",
    "NULL_METRICS",
    "ObsConfig",
    "ObsSession",
    "ProgressReporter",
    "TraceStore",
    "chrome_trace_document",
    "conservation_audit",
    "export_chrome_trace",
    "flow_summaries",
    "journey_waterfall",
    "observe",
]
