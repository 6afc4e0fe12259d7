"""Deterministic discrete-event simulation substrate.

The paper's prototype executed on a distributed actor platform [14,
15]; this reproduction substitutes a deterministic discrete-event
simulator so that message interleavings, latencies, and counts are
reproducible (see DESIGN.md, "Substitutions").

* :mod:`repro.sim.clock` -- the virtual clock and its calendar (a heap of
  instants, each holding its lone entry or a FIFO of its entries).
* :mod:`repro.sim.network` -- sites, links, latency models, message
  accounting, and an optional service-time queue per site (used to
  model the bottleneck at a centralized scheduler node).
* :mod:`repro.sim.reliable` -- exactly-once FIFO sessions (sequence
  numbers, acks, timeout retransmission) over the lossy fabric.
* :mod:`repro.sim.faults` -- scheduled site crash/restart injection.
"""

from repro.sim.clock import Simulator
from repro.sim.faults import FaultInjector, FaultPlan, SiteCrash
from repro.sim.network import (
    ConstantLatency,
    ExponentialLatency,
    LatencyModel,
    Network,
    NetworkStats,
    UniformLatency,
)
from repro.sim.reliable import ReliableNetwork

__all__ = [
    "ConstantLatency",
    "ExponentialLatency",
    "FaultInjector",
    "FaultPlan",
    "LatencyModel",
    "Network",
    "NetworkStats",
    "ReliableNetwork",
    "SiteCrash",
    "Simulator",
    "UniformLatency",
]
