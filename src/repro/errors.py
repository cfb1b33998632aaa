"""Exception hierarchy for the ``repro`` package.

Every error raised by the library derives from :class:`ReproError`, so user
code can catch library failures with a single ``except`` clause while still
being able to distinguish configuration problems from runtime protocol
problems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ConfigurationError(ReproError, ValueError):
    """A component was configured with inconsistent or invalid parameters.

    Also a :class:`ValueError`: an invalid parameter value is exactly what the
    built-in means, so callers outside the library can catch the idiomatic
    exception without importing the ``repro`` hierarchy.
    """


class SimulationError(ReproError):
    """The discrete-event engine was used incorrectly (e.g. scheduling in the past)."""


class SchedulingError(SimulationError):
    """An event could not be scheduled or cancelled."""


class PhyError(ReproError):
    """The physical layer was driven into an invalid state."""


class AggregationError(ReproError):
    """The frame aggregator was asked to build an invalid aggregate."""


class RoutingError(ReproError):
    """No route exists for a destination, or a routing table is malformed."""


class TransportError(ReproError):
    """A transport-layer (TCP/UDP) protocol violation or misuse."""


class TcpStateError(TransportError):
    """A TCP operation was attempted in a connection state that forbids it."""


class AddressError(ReproError):
    """A MAC or IP address string/value could not be parsed or is invalid."""


class ExperimentError(ReproError):
    """An experiment specification is invalid or a run failed to produce results."""
