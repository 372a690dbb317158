"""Datacenter-scale scaling curves: speedup vs nodes vs topology.

The paper stops at 8 nodes on one Myrinet switch; Section 5 asks "how
the performance and bottlenecks scale with system size".  This driver
answers at datacenter scale: a strong-scaling sweep of one datacenter
workload over node counts up to 1024, crossed with fabric topologies
(crossbar / fat-tree / dragonfly) and protocol rungs (Base vs GeNIMA).

Strong scaling needs fixed total work: :func:`scale_params` sizes each
workload so the aggregate request count (or aggregate gradient
compute) is constant while the per-rank share shrinks with the
machine.  Open-loop generators are paced *fast* (deterministic 1
request/us) so runs measure service capacity, not the arrival
schedule.  The speedup baseline is the uniprocessor run of the same
total work (the paper's methodology: sequential, no SVM library).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from ..runtime import speedup
from ..svm import BASE, GENIMA
from .cache import ExperimentCache, grid_cache
from .reporting import format_table

__all__ = ["SCALE_NODES", "SCALE_TOPOLOGIES", "SCALE_TELEMETRY_US",
           "scale_params", "compute_scale", "render_scale"]

#: default node counts of the scaling sweep.
SCALE_NODES = (4, 16, 64, 256, 1024)

#: default fabric models to cross the sweep with.
SCALE_TOPOLOGIES = ("crossbar", "fat-tree")

#: total work held fixed across node counts.
TOTAL_REQUESTS = 2048
TOTAL_COMPUTE_US = 400_000.0


def scale_params(app_name: str, nprocs: int, seed: int = 0) -> Dict:
    """Constructor params sizing ``app_name`` for fixed total work.

    ``nprocs = 1`` gives the sequential-baseline sizing: the whole
    request stream (or the whole gradient computation) on one rank.
    """
    if nprocs < 1:
        raise ValueError("nprocs must be >= 1")
    if app_name == "KVStore":
        # Service-compute-heavy requests spread over many shards: the
        # sweep measures how fabric latency and shard-lock contention
        # erode capacity, not the (constant) page-fetch floor.
        return dict(shards=max(16, nprocs),
                    requests_per_rank=max(TOTAL_REQUESTS // nprocs, 1),
                    arrivals="deterministic", rate_per_us=1.0,
                    service_us=100.0, hot_fraction=0.25, hot_shards=4,
                    seed=seed)
    if app_name == "ParamServer":
        return dict(param_pages=256, steps=4, fetch_fanout=8,
                    compute_us=TOTAL_COMPUTE_US / nprocs, seed=seed)
    if app_name == "OpenLoop":
        return dict(pages=256,
                    requests_per_rank=max(TOTAL_REQUESTS // nprocs, 1),
                    arrivals="deterministic", rate_per_us=1.0,
                    service_us=100.0, seed=seed)
    raise ValueError(f"no scaling recipe for app {app_name!r} "
                     "(one of KVStore, ParamServer, OpenLoop)")


#: default telemetry sampling cadence of the scale sweep (us of sim
#: time per sample).  The sampler is an engine-hook observer, so the
#: sampled cells' schedules — and times — match unsampled runs.
SCALE_TELEMETRY_US = 1000.0


def compute_scale(app_name: str = "KVStore",
                  node_counts: Sequence[int] = SCALE_NODES,
                  topologies: Sequence[str] = SCALE_TOPOLOGIES,
                  feature_sets: Iterable = (BASE, GENIMA),
                  procs_per_node: int = 1,
                  cache: Optional[ExperimentCache] = None,
                  seed: int = 0,
                  telemetry_us: Optional[float] = SCALE_TELEMETRY_US
                  ) -> List[Dict]:
    """The scaling grid: one row per (topology, protocol, nodes).

    With ``telemetry_us`` set (the default) every SVM cell runs with a
    :class:`~repro.obs.TimeSeriesSampler` attached, and each row
    carries a ``telemetry`` digest — peak NI queue depth plus
    queue-depth and page-fault skew ratios — so the scaling curves
    explain *where* capacity went, not just that it did.
    """
    from ..obs import telemetry_brief
    cache = grid_cache(cache)
    feature_sets = list(feature_sets)
    cells = {"seq": cache.spec_seq(app_name,
                                   **scale_params(app_name, 1, seed=seed))}
    grid = []
    for topo in topologies:
        for feats in feature_sets:
            for nodes in node_counts:
                config = cache.config.scaled(
                    nodes=nodes, procs_per_node=procs_per_node,
                    topology=topo)
                cells[len(grid)] = cache.spec_svm(
                    app_name, feats, config=config,
                    telemetry_us=telemetry_us,
                    **scale_params(app_name, config.total_procs,
                                   seed=seed))
                grid.append((topo, feats, nodes, config))
    runs = cache.run(cells)
    seq = runs["seq"]
    rows = []
    for i, (topo, feats, nodes, config) in enumerate(grid):
        result = runs[i]
        rows.append({
            "app": app_name,
            "topology": topo,
            "protocol": feats.name,
            "nodes": nodes,
            "procs": config.total_procs,
            "time_us": result.time_us,
            "seq_time_us": seq.time_us,
            "speedup": speedup(seq, result),
            "telemetry": telemetry_brief(result.telemetry),
        })
    return rows


def _skew_label(row: Optional[Dict]) -> str:
    """Compact queue-skew annotation for one scale row ("-" when the
    cell was unsampled; "inf" when the median node is idle)."""
    telemetry = (row or {}).get("telemetry")
    if not telemetry:
        return "-"
    ratio = telemetry.get("queue_skew")
    if ratio is None:
        return "inf"
    return f"{ratio:.1f}x"


def render_scale(rows: List[Dict], app_name: str) -> str:
    """One table per topology: nodes down, protocols across (speedup
    plus the telemetry queue-skew digest when cells were sampled)."""
    topologies = sorted({r["topology"] for r in rows})
    protocols = list(dict.fromkeys(r["protocol"] for r in rows))
    sampled = any(r.get("telemetry") for r in rows)
    blocks = []
    for topo in topologies:
        sub = [r for r in rows if r["topology"] == topo]
        nodes = sorted({r["nodes"] for r in sub})
        cell = {(r["nodes"], r["protocol"]): r for r in sub}
        table_rows = []
        for n in nodes:
            entry = [str(n)]
            for proto in protocols:
                r = cell.get((n, proto))
                entry.append(r["speedup"] if r else float("nan"))
                if sampled:
                    entry.append(_skew_label(r))
            table_rows.append(tuple(entry))
        header = ["nodes"]
        for p in protocols:
            header.append(f"{p} speedup")
            if sampled:
                header.append(f"{p} q-skew")
        blocks.append(format_table(
            header, table_rows,
            title=f"Scaling: {app_name} on {topo} "
                  f"(fixed total work)"))
    return "\n\n".join(blocks)
