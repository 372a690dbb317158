"""Discrete-event simulation kernel (events, processes, resources, stats)."""

from .engine import (
    Event,
    Interrupt,
    Process,
    SimulationError,
    Simulator,
    Timeout,
)
from .resources import RateServer, Resource, Store
from .spans import SpanTracer, nic_track, node_track, rank_track
from .stats import (BUCKETS, TIME_TOLERANCE_US, RunningStat, SeededStream,
                    TimeBuckets, weighted_mean)
from .trace import TraceEvent, Tracer
from .trace_schema import TRACE_SCHEMA, TraceFamily

__all__ = [
    "Event",
    "Interrupt",
    "Process",
    "SimulationError",
    "Simulator",
    "Timeout",
    "RateServer",
    "Resource",
    "Store",
    "BUCKETS",
    "RunningStat",
    "SeededStream",
    "TIME_TOLERANCE_US",
    "TimeBuckets",
    "weighted_mean",
    "TraceEvent",
    "Tracer",
    "TRACE_SCHEMA",
    "TraceFamily",
    "SpanTracer",
    "rank_track",
    "node_track",
    "nic_track",
]
