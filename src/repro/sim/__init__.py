"""Discrete-event simulation kernel.

Time is measured in integer nanoseconds for determinism.  Processes are
plain Python generators that ``yield`` awaitables: an integer delay, an
:class:`Event`, another :class:`Process` (join), or the combinators
:class:`AllOf` / :class:`AnyOf`.

This is the substrate every simulated component (CPU, RNIC, fabric) runs on.
"""

from repro.sim.engine import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Simulator,
)
from repro.sim.resources import Resource, Store
from repro.sim.stats import LatencyRecorder, RateMeter, percentile

US = 1_000  # nanoseconds per microsecond
MS = 1_000_000  # nanoseconds per millisecond
SEC = 1_000_000_000  # nanoseconds per second

__all__ = [
    "AllOf",
    "AnyOf",
    "Event",
    "Interrupt",
    "LatencyRecorder",
    "MS",
    "Process",
    "RateMeter",
    "Resource",
    "SEC",
    "SimulationError",
    "Simulator",
    "Store",
    "US",
    "percentile",
]
