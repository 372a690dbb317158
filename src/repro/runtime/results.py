"""Run results: timings, breakdowns and derived metrics."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..sim import BUCKETS, SimulationError, TimeBuckets

__all__ = ["RunResult", "speedup"]


@dataclass
class RunResult:
    """Everything one simulated run produces."""

    app: str
    system: str              # "Base", "DW", ..., "GeNIMA", "Origin", "seq"
    nprocs: int
    time_us: float           # parallel (or sequential) execution time
    #: per-rank timed-section wall time; the sum-equals-wall invariant
    #: compares each entry with the rank's bucket total.
    wall_us: List[float] = field(default_factory=list)
    buckets: List[TimeBuckets] = field(default_factory=list)
    barrier_protocol_us: List[float] = field(default_factory=list)
    mprotect_us: float = 0.0
    stats: Dict[str, float] = field(default_factory=dict)
    monitor_small: Optional[dict] = None
    monitor_large: Optional[dict] = None
    #: sampled telemetry summary (repro.obs.TimeSeriesSampler.summary)
    #: when the run was sampled; None otherwise.  JSON-safe by
    #: construction so it rides the run cache unchanged.
    telemetry: Optional[dict] = None

    @property
    def residual_us(self) -> List[float]:
        """Per rank, bucket total minus wall time: the sum-equals-wall
        residual (``[]`` for runs without buckets)."""
        return [b.total - w for b, w in zip(self.buckets, self.wall_us)]

    @property
    def mean_breakdown(self) -> TimeBuckets:
        return TimeBuckets.average(self.buckets)

    # -- Table 2 metrics ------------------------------------------------------

    @property
    def barrier_fraction(self) -> float:
        """BT: portion of execution time spent in barriers."""
        mean = self.mean_breakdown
        return mean.barrier / mean.total if mean.total else 0.0

    @property
    def barrier_protocol_fraction(self) -> float:
        """BPT: portion of barrier time that is protocol processing."""
        mean = self.mean_breakdown
        if mean.barrier <= 0:
            return 0.0
        proto = (sum(self.barrier_protocol_us)
                 / max(len(self.barrier_protocol_us), 1))
        return min(proto / mean.barrier, 1.0)

    @property
    def mprotect_fraction(self) -> float:
        """MT: mprotect share of total SVM overhead (data+lock+acqrel+
        barrier time)."""
        mean = self.mean_breakdown
        overhead = mean.data + mean.lock + mean.acqrel + mean.barrier
        if overhead <= 0:
            return 0.0
        per_proc_mprotect = self.mprotect_us / max(self.nprocs, 1)
        return min(per_proc_mprotect / overhead, 1.0)

    def summary(self) -> Dict[str, float]:
        out = {
            "app": self.app,
            "system": self.system,
            "nprocs": self.nprocs,
            "time_us": self.time_us,
        }
        mean = self.mean_breakdown
        for name in BUCKETS:
            out[name] = getattr(mean, name)
        out.update(self.stats)
        return out


def speedup(sequential: RunResult, parallel: RunResult) -> float:
    """T_seq / T_par, the paper's speedup definition.

    Raises :class:`~repro.sim.SimulationError` (not a bare ValueError)
    naming the offending run when the parallel time is non-positive, so
    experiment sweeps fail with an attributable error.
    """
    if parallel.time_us <= 0:
        raise SimulationError(
            f"speedup({parallel.app}/{parallel.system}, "
            f"nprocs={parallel.nprocs}): parallel time must be positive, "
            f"got {parallel.time_us!r} us")
    return sequential.time_us / parallel.time_us
