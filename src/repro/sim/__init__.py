"""Discrete-event simulation engine.

This package provides the minimal machinery the rest of the library is built
on: a priority-queue scheduler (:class:`~repro.sim.scheduler.Scheduler`) whose
:class:`~repro.sim.scheduler.Event` is both the queued record and the handle a
caller keeps, the simulation clock and run loop
(:class:`~repro.sim.simulator.Simulator`), restartable timers
(:class:`~repro.sim.timer.Timer`, the only long-lived holder of a pending
event), reproducible random streams
(:class:`~repro.sim.randomness.RandomStreams`) and the instrumentation hook
(:class:`~repro.sim.trace.Tracer`).
"""

from repro.sim.scheduler import Event, Scheduler
from repro.sim.simulator import Simulator
from repro.sim.telemetry import TELEMETRY, SimTelemetry
from repro.sim.timer import Timer
from repro.sim.randomness import RandomStreams
from repro.sim.trace import TraceRecord, Tracer

__all__ = [
    "Event",
    "Scheduler",
    "Simulator",
    "SimTelemetry",
    "TELEMETRY",
    "Timer",
    "RandomStreams",
    "Tracer",
    "TraceRecord",
]
