"""Flow-level discrete-event simulation (the §7 R1 scheduling study)."""

from repro.sim.events import Event, EventQueue
from repro.sim.flowsim import (
    CompletedJob,
    FCTStats,
    SimulationError,
    SimulationResult,
    average_throughput,
    fct_stats,
    simulate,
)
from repro.sim.jobs import FlowJob, incast_burst, poisson_workload
from repro.sim.policies import (
    MatchingScheduler,
    MaxMinCongestionControl,
    ProcessorSharing,
    ReroutingCongestionControl,
)
from repro.sim.stream import simulate_stream

__all__ = [
    "CompletedJob",
    "average_throughput",
    "Event",
    "EventQueue",
    "FCTStats",
    "FlowJob",
    "MatchingScheduler",
    "MaxMinCongestionControl",
    "ProcessorSharing",
    "ReroutingCongestionControl",
    "SimulationError",
    "SimulationResult",
    "fct_stats",
    "incast_burst",
    "poisson_workload",
    "simulate",
    "simulate_stream",
]
