"""Figure drivers: speedup charts and execution-time breakdowns.

* Figure 1 — speedups, hardware DSM (Origin 2000) vs. the Base SVM
  protocol, 16 processors, all ten applications.
* Figure 2 — speedups for the protocol ladder (Base, DW, DW+RF,
  DW+RF+DD, GeNIMA) per application.
* Figure 3 — normalized execution-time breakdowns (Compute / Data /
  Lock / AcqRel / Barrier) for the same grid.
* Figure 4 — speedups for Origin 2000, Base and GeNIMA.

Each ``compute_*`` returns plain data; each ``render_*`` produces the
text table the benchmark harness prints.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..runtime import speedup
from ..runtime.parallel import CellSpec
from ..sim import BUCKETS
from ..svm import BASE, GENIMA, PROTOCOL_LADDER
from .cache import ExperimentCache, grid_cache, paper_apps, run_rows
from .reporting import format_table

__all__ = [
    "compute_figure1", "render_figure1",
    "compute_figure2", "render_figure2",
    "compute_figure3", "render_figure3",
    "compute_figure4", "render_figure4",
]

LADDER_NAMES = [f.name for f in PROTOCOL_LADDER]


def speedup_grid(cache: ExperimentCache, apps: List[str],
                 columns: Callable[[str], Dict[str, CellSpec]]
                 ) -> Dict[str, Dict[str, float]]:
    """Per app, the speedup of each of its ``columns(app)`` cells over
    its sequential run, all read in one :meth:`ExperimentCache.run`."""
    rows = run_rows(cache, [{"seq": cache.spec_seq(app), **columns(app)}
                            for app in apps])
    return {app: {name: speedup(row["seq"], result)
                  for name, result in row.items() if name != "seq"}
            for app, row in zip(apps, rows)}


# ------------------------------------------------------------------ Figure 1

def compute_figure1(cache: Optional[ExperimentCache] = None,
                    apps: Optional[List[str]] = None) -> Dict[str, Dict[str, float]]:
    cache = grid_cache(cache)
    return speedup_grid(cache, paper_apps(apps), lambda app: {
        "Origin": cache.spec_origin(app),
        "Base": cache.spec_svm(app, BASE)})


def render_figure1(data: Dict[str, Dict[str, float]]) -> str:
    rows = [(app, vals["Origin"], vals["Base"]) for app, vals in data.items()]
    return format_table(
        ["Application", "Origin 2000", "SVM (Base)"], rows,
        title="Figure 1: speedups, hardware DSM vs Base SVM (16 procs)")


# ------------------------------------------------------------------ Figure 2

def compute_figure2(cache: Optional[ExperimentCache] = None,
                    apps: Optional[List[str]] = None) -> Dict[str, Dict[str, float]]:
    cache = grid_cache(cache)
    return speedup_grid(cache, paper_apps(apps), lambda app: {
        feats.name: cache.spec_svm(app, feats) for feats in PROTOCOL_LADDER})


def render_figure2(data: Dict[str, Dict[str, float]]) -> str:
    rows = [tuple([app] + [vals[n] for n in LADDER_NAMES])
            for app, vals in data.items()]
    return format_table(
        ["Application"] + LADDER_NAMES, rows,
        title="Figure 2: application speedups per protocol (16 procs)")


# ------------------------------------------------------------------ Figure 3

def compute_figure3(cache: Optional[ExperimentCache] = None,
                    apps: Optional[List[str]] = None) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Per app, per protocol: execution-time fractions normalized to
    the Base protocol's total (as the paper's stacked bars are)."""
    cache, apps = grid_cache(cache), paper_apps(apps)
    rows = run_rows(cache, [{feats.name: cache.spec_svm(app, feats)
                             for feats in PROTOCOL_LADDER} for app in apps])
    out = {}
    for app, row in zip(apps, rows):
        base_total = row[BASE.name].mean_breakdown.total
        per_protocol = {}
        for name, result in row.items():
            mean = result.mean_breakdown
            per_protocol[name] = {
                bucket: getattr(mean, bucket) / base_total
                for bucket in BUCKETS
            }
        out[app] = per_protocol
    return out


def render_figure3(data) -> str:
    rows = []
    for app, per_protocol in data.items():
        for name in LADDER_NAMES:
            frac = per_protocol[name]
            rows.append((app, name) + tuple(frac[b] for b in BUCKETS)
                        + (sum(frac.values()),))
    return format_table(
        ["Application", "Protocol"] + list(BUCKETS) + ["total"], rows,
        title=("Figure 3: execution-time breakdowns, normalized to each "
               "application's Base total"))


# ------------------------------------------------------------------ Figure 4

def compute_figure4(cache: Optional[ExperimentCache] = None,
                    apps: Optional[List[str]] = None) -> Dict[str, Dict[str, float]]:
    cache = grid_cache(cache)
    return speedup_grid(cache, paper_apps(apps), lambda app: {
        "Origin": cache.spec_origin(app),
        "Base": cache.spec_svm(app, BASE),
        "GeNIMA": cache.spec_svm(app, GENIMA)})


def render_figure4(data: Dict[str, Dict[str, float]]) -> str:
    rows = [(app, v["Origin"], v["Base"], v["GeNIMA"])
            for app, v in data.items()]
    return format_table(
        ["Application", "Origin 2000", "Base", "GeNIMA"], rows,
        title="Figure 4: speedups, hardware DSM vs Base vs GeNIMA")
