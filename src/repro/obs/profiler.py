"""Time-sliced profiling of a simulated run.

The paper's argument is a cost-accounting one: Figure 3's per-process
execution-time breakdowns and the NI-occupancy discussion explain *why*
each NI mechanism helps.  A single end-of-run :class:`TimeBuckets` per
rank cannot show *when* the time went, so :func:`probe_phases` adds the
**phase set** to a :class:`~repro.obs.TimeSeriesSampler`, and
:func:`build_profile` turns its timelines into a :class:`Profile`: per
slice, each rank's Figure-3 bucket deltas and each node's station busy
fractions (host protocol processor, LANai, PCI/DMA, outgoing link),
plus final breakdowns, wall times, the machine's metric snapshot and
the time-accounting residuals.

Each rank's residual is ``RunResult.residual_us`` (bucket total minus
wall time); :func:`build_profile` records it, ``Profile.accounting_ok``
holds it to :data:`~repro.sim.stats.TIME_TOLERANCE_US`, and a traced
run's ``prof.rank`` records carry it to the sanitizer.
"""

from __future__ import annotations

import json
import weakref
from dataclasses import dataclass, field
from typing import Dict, List

from ..sim import BUCKETS, TIME_TOLERANCE_US

__all__ = ["Profile", "build_profile", "probe_phases"]

#: stations sampled per node, in report order: the machine list and
#: attribute that hold each one.
_STATION_ATTRS = {"host_proto": ("nodes", "protocol_proc"),
                  "lanai": ("nics", "lanai"), "pci": ("nics", "pci"),
                  "link": ("nics", "out_link")}
STATIONS = tuple(_STATION_ATTRS)

#: profile JSON schema version (bump on breaking change).
PROFILE_SCHEMA = 1


@dataclass
class Profile:
    """Everything one profiled run produces, JSON-serializable."""

    app: str
    system: str
    nodes: int
    nprocs: int
    slice_us: float
    time_us: float
    wall_us: List[float]
    buckets: List[Dict[str, float]]
    barrier_protocol_us: List[float]
    residual_us: List[float]
    slices: List[dict] = field(default_factory=list)
    utilization: List[Dict[str, float]] = field(default_factory=list)
    metrics: Dict[str, object] = field(default_factory=dict)

    @property
    def max_residual_us(self) -> float:
        return max((abs(r) for r in self.residual_us), default=0.0)

    @property
    def accounting_ok(self) -> bool:
        return self.max_residual_us <= TIME_TOLERANCE_US

    def mean_buckets(self) -> Dict[str, float]:
        out = {name: 0.0 for name in BUCKETS}
        if not self.buckets:
            return out
        for b in self.buckets:
            for name in BUCKETS:
                out[name] += b.get(name, 0.0)
        return {name: v / len(self.buckets) for name, v in out.items()}

    def to_dict(self) -> dict:
        return {
            "schema": PROFILE_SCHEMA,
            "app": self.app,
            "system": self.system,
            "nodes": self.nodes,
            "nprocs": self.nprocs,
            "slice_us": self.slice_us,
            "time_us": self.time_us,
            "invariant": {
                "max_residual_us": self.max_residual_us,
                "tolerance_us": TIME_TOLERANCE_US,
                "ok": self.accounting_ok,
            },
            "ranks": [
                {
                    "rank": rank,
                    "wall_us": self.wall_us[rank],
                    "residual_us": self.residual_us[rank],
                    "barrier_protocol_us": self.barrier_protocol_us[rank],
                    "buckets": self.buckets[rank],
                }
                for rank in range(len(self.buckets))
            ],
            "timeline": {"slice_us": self.slice_us, "slices": self.slices},
            "utilization": self.utilization,
            "metrics": self.metrics,
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_payload(cls, data: dict) -> "Profile":
        """Inverse of :meth:`to_dict` (used by the run-cache codec).

        Lossless for everything the reports consume, so a profile that
        round-trips through the persistent store renders byte-identical
        to one built live from a sampled run.
        """
        ranks = data.get("ranks", [])
        return cls(
            app=data["app"],
            system=data["system"],
            nodes=data["nodes"],
            nprocs=data["nprocs"],
            slice_us=data["slice_us"],
            time_us=data["time_us"],
            wall_us=[r["wall_us"] for r in ranks],
            buckets=[dict(r["buckets"]) for r in ranks],
            barrier_protocol_us=[r["barrier_protocol_us"]
                                 for r in ranks],
            residual_us=[r["residual_us"] for r in ranks],
            slices=list(data.get("timeline", {}).get("slices", [])),
            utilization=list(data.get("utilization", [])),
            metrics=dict(data.get("metrics", {})),
        )


def probe_phases(sampler) -> None:
    """Add the Figure-3 phase set to a sampler, before its run:
    timelines ``phase.<bucket>`` over every rank's buckets and
    ``busy.<station>`` over every node's station busy time::

        sampler = TimeSeriesSampler(cadence_us=1000.0)
        probe_phases(sampler)
        result = run_svm(app, GENIMA, telemetry=sampler)
        profile = build_profile(sampler, result)
    """
    # Through a proxy: the sampler keeps these readers, so naming it
    # would put the sampler, and the run it holds, in a cycle.
    run = weakref.proxy(sampler)

    def bucket(name):
        return lambda: [getattr(b, name) for b in run.protocol.buckets]

    def busy(station):
        group, attr = _STATION_ATTRS[station]
        return lambda: [getattr(owner, attr).sample_busy()
                        for owner in getattr(run.machine, group)]

    for name in BUCKETS:
        sampler.probe(f"phase.{name}", "timeline", bucket(name))
    for station in STATIONS:
        sampler.probe(f"busy.{station}", "timeline", busy(station))


def build_profile(sampler, result) -> Profile:
    """Assemble the JSON-ready profile of a run sampled with the phase
    set.  A traced run also gets one ``prof.rank`` record per rank, so
    the offline sanitizer can re-check sum-equals-wall."""
    phase = [sampler.timeline(f"phase.{name}") for name in BUCKETS]
    busy = [sampler.timeline(f"busy.{station}") for station in STATIONS]
    slices = []
    for i, (t0, t1, _) in enumerate(phase[0]):
        slices.append({
            "t0": t0, "t1": t1,
            "ranks": [dict(zip(BUCKETS, values))
                      for values in zip(*(rows[i][2] for rows in phase))],
            "utilization": [
                {s: v / (t1 - t0) for s, v in zip(STATIONS, values)}
                for values in zip(*(rows[i][2] for rows in busy))],
        })
    # Window totals: busy time since attach over the window, not a sum
    # of the per-slice fractions.
    t0, t1 = sampler.window_us
    span = t1 - t0
    utilization = [
        {s: v / span if span > 0 else 0.0 for s, v in zip(STATIONS, values)}
        for values in zip(*(sampler.timeline_change(f"busy.{station}")
                            for station in STATIONS))]
    wall = list(result.wall_us)
    residuals = result.residual_us
    tracer = getattr(sampler.protocol, "tracer", None)
    if tracer is not None:
        for rank, (w, b) in enumerate(zip(wall, result.buckets)):
            tracer.record(sampler.sim.now, "prof.rank", rank=rank,
                          wall_us=w, bucket_us=b.total,
                          residual_us=residuals[rank])
    return Profile(
        app=result.app,
        system=result.system,
        nodes=sampler.machine.config.nodes,
        nprocs=result.nprocs,
        slice_us=sampler.cadence_us,
        time_us=result.time_us,
        wall_us=wall,
        buckets=[b.as_dict() for b in result.buckets],
        barrier_protocol_us=list(result.barrier_protocol_us),
        residual_us=residuals,
        slices=slices,
        utilization=utilization,
        metrics=sampler.machine.metrics.snapshot(),
    )
