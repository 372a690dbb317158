"""Table drivers.

* Table 1 — application statistics: uniprocessor time, overall
  improvement Base -> GeNIMA, data-wait improvement DW -> DW+RF (and,
  in parentheses in the paper, DW -> GeNIMA), lock-time improvement
  DW+RF+DD -> GeNIMA.
* Table 2 — barrier time share (BT), protocol share of barrier time
  (BPT) and mprotect share of total SVM overhead (MT), under GeNIMA.
* Tables 3 & 4 — per-stage contention ratios (average time over
  uncontended time) for small and large packets, Base vs GeNIMA.
* Table 5 — 32-processor speedups (8 nodes x 4), SVM (GeNIMA) vs the
  hardware DSM.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..svm import BASE, DW, DW_RF, DW_RF_DD, GENIMA, PROTOCOL_LADDER
from .cache import ExperimentCache, grid_cache, paper_apps, run_rows
from .figures import speedup_grid
from .reporting import format_table

__all__ = [
    "compute_table1", "render_table1",
    "compute_table2", "render_table2",
    "compute_table34", "render_table34",
    "compute_table5", "render_table5",
]


def _improvement(before: float, after: float) -> float:
    """Percent improvement of a time-like metric (positive = better)."""
    if before <= 0:
        return 0.0
    return 100.0 * (before - after) / before


# ------------------------------------------------------------------- Table 1

def compute_table1(cache: Optional[ExperimentCache] = None,
                   apps: Optional[List[str]] = None) -> Dict[str, Dict[str, float]]:
    cache, apps = grid_cache(cache), paper_apps(apps)
    rows = run_rows(cache, [
        {"seq": cache.spec_seq(app),
         **{feats.name: cache.spec_svm(app, feats)
            for feats in PROTOCOL_LADDER}} for app in apps])
    out = {}
    for app, row in zip(apps, rows):
        seq, base, genima = row["seq"], row[BASE.name], row[GENIMA.name]
        dw, rf, dd = row[DW.name], row[DW_RF.name], row[DW_RF_DD.name]
        out[app] = {
            "uniproc_s": seq.time_us / 1e6,
            # col 4: overall improvement Base -> GeNIMA (speedup gain)
            "overall_pct": 100.0 * (base.time_us / genima.time_us - 1.0),
            # col 5: data wait improvement DW -> DW+RF
            "data_pct": _improvement(dw.mean_breakdown.data,
                                     rf.mean_breakdown.data),
            # (parenthesized in the paper: DW -> GeNIMA)
            "data_pct_genima": _improvement(dw.mean_breakdown.data,
                                            genima.mean_breakdown.data),
            # col 6: lock improvement DW+RF+DD -> GeNIMA
            "lock_pct": _improvement(dd.mean_breakdown.lock,
                                     genima.mean_breakdown.lock),
        }
    return out


def render_table1(data: Dict[str, Dict[str, float]]) -> str:
    rows = []
    for app, v in data.items():
        rows.append((app, v["uniproc_s"], v["overall_pct"],
                     f"{v['data_pct']:.2f} ({v['data_pct_genima']:.2f})",
                     v["lock_pct"]))
    return format_table(
        ["Application", "Uniproc(s)", "Overall(%)", "DataTime(%)",
         "LockTime(%)"],
        rows,
        title=("Table 1: improvements — overall Base->GeNIMA, data wait "
               "DW->DW+RF (DW->GeNIMA), lock DW+RF+DD->GeNIMA"))


# ------------------------------------------------------------------- Table 2

def compute_table2(cache: Optional[ExperimentCache] = None,
                   apps: Optional[List[str]] = None) -> Dict[str, Dict[str, float]]:
    cache, apps = grid_cache(cache), paper_apps(apps)
    runs = cache.run({app: cache.spec_svm(app, GENIMA) for app in apps})
    out = {}
    for app, result in runs.items():
        out[app] = {
            "BT": 100.0 * result.barrier_fraction,
            "BPT": 100.0 * result.barrier_protocol_fraction,
            "MT": 100.0 * result.mprotect_fraction,
        }
    return out


def render_table2(data: Dict[str, Dict[str, float]]) -> str:
    rows = [(app, f"{v['BT']:.1f}%", f"{v['BPT']:.0f}%", f"{v['MT']:.1f}%")
            for app, v in data.items()]
    return format_table(
        ["Application", "BT", "BPT", "MT"], rows,
        title=("Table 2: barrier time share (BT), protocol share of "
               "barrier time (BPT), mprotect share of SVM overhead (MT)"))


# -------------------------------------------------------------- Tables 3 & 4

STAGE_NAMES = ("source", "lanai", "net", "dest")


def compute_table34(cache: Optional[ExperimentCache] = None,
                    apps: Optional[List[str]] = None) -> Dict[str, Dict]:
    """Returns {app: {"small": {"Base": ratios, "GeNIMA": ratios},
    "large": {...}}} with per-stage contention ratios."""
    cache, apps = grid_cache(cache), paper_apps(apps)
    rows = run_rows(cache, [{"base": cache.spec_svm(app, BASE),
                             "genima": cache.spec_svm(app, GENIMA)}
                            for app in apps])
    out = {}
    for app, row in zip(apps, rows):
        base, genima = row["base"], row["genima"]
        out[app] = {
            "small": {"Base": base.monitor_small,
                      "GeNIMA": genima.monitor_small},
            "large": {"Base": base.monitor_large,
                      "GeNIMA": genima.monitor_large},
        }
    return out


def render_table34(data: Dict[str, Dict], size_class: str) -> str:
    if size_class not in ("small", "large"):
        raise ValueError("size_class must be 'small' or 'large'")
    rows = []
    for app, v in data.items():
        cells = [app]
        for stage in STAGE_NAMES:
            b = v[size_class]["Base"][stage]
            g = v[size_class]["GeNIMA"][stage]
            cells.append(f"{b:.1f}/{g:.1f}")
        rows.append(tuple(cells))
    number = "3" if size_class == "small" else "4"
    return format_table(
        ["Application", "SourceLat", "LANaiLat", "NetLat", "DestLat"],
        rows,
        title=(f"Table {number}: contention ratios (avg/uncontended), "
               f"{size_class} packets, Base/GeNIMA"))


# ------------------------------------------------------------------- Table 5

def compute_table5(cache: Optional[ExperimentCache] = None,
                   apps: Optional[List[str]] = None) -> Dict[str, Dict[str, float]]:
    cache = grid_cache(cache)
    return speedup_grid(cache, paper_apps(apps), lambda app: {
        "SVM": cache.spec_svm(app, GENIMA, nodes=8),
        "Origin": cache.spec_origin(app, nprocs=32)})


def render_table5(data: Dict[str, Dict[str, float]]) -> str:
    rows = [(app, v["SVM"], v["Origin"]) for app, v in data.items()]
    return format_table(
        ["Application", "SVM (GeNIMA)", "SGI Origin2000"], rows,
        title="Table 5: speedups on 32 processors")
