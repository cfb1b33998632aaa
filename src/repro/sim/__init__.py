"""Discrete-event simulation engine.

This package provides the minimal machinery the rest of the library is built
on: a priority-queue scheduler (:class:`~repro.sim.scheduler.Scheduler`), the
simulation clock and run loop (:class:`~repro.sim.simulator.Simulator`),
restartable timers (:class:`~repro.sim.timer.Timer`), reproducible random
streams (:class:`~repro.sim.randomness.RandomStreams`) and a trace/logging hook
(:class:`~repro.sim.trace.Tracer`).
"""

from repro.sim.events import Event, EventHandle
from repro.sim.scheduler import Scheduler
from repro.sim.simulator import Simulator
from repro.sim.telemetry import TELEMETRY, SimTelemetry
from repro.sim.timer import Timer
from repro.sim.randomness import RandomStreams
from repro.sim.trace import TraceRecord, Tracer

__all__ = [
    "Event",
    "EventHandle",
    "Scheduler",
    "Simulator",
    "SimTelemetry",
    "TELEMETRY",
    "Timer",
    "RandomStreams",
    "Tracer",
    "TraceRecord",
]
