"""Sensitivity and scaling studies.

* **Interrupt-cost sensitivity** — the paper's premise is that "the
  cost of interrupts used for asynchronous message handling and/or
  protocol processing is one of the most important bottlenecks in
  modern SVM clusters".  If that is what GeNIMA exploits, its advantage
  over Base must grow with the interrupt cost and shrink toward the
  cost of its extra traffic as interrupts become free.  This study
  sweeps ``interrupt_us`` and measures both protocols.

* **Scaling study** — speedups versus processor count (Section 5:
  "we are currently investigating how the performance and bottlenecks
  scale with system size"), at fixed problem size.

Both read their cells through the process-wide run cache, so a cell a
figure already computed (the default machine's) is not computed again.
"""

from __future__ import annotations

from typing import Dict, List

from ..hw import MachineConfig
from ..runtime import speedup
from ..svm import BASE, GENIMA
from .cache import grid_cache, run_rows
from .reporting import format_table

__all__ = ["interrupt_cost_sensitivity", "scaling_study",
           "render_sensitivity", "render_scaling"]


def _base_vs_genima(app_name: str, configs: List[MachineConfig]) -> List[Dict]:
    """Per machine of ``configs``, the ``seq``, ``Base`` and ``GeNIMA``
    runs of ``app_name``, all read through the run cache in one batch."""
    cache = grid_cache()
    return run_rows(cache, [{feats.name: cache.spec_svm(app_name, feats,
                                                        config=config)
                             for feats in (BASE, GENIMA)}
                            for config in configs],
                    seq=cache.spec_seq(app_name))


def interrupt_cost_sensitivity(
        app_name: str = "Water-nsquared",
        interrupt_costs=(5.0, 20.0, 55.0, 110.0),
        jitter_ratio: float = 0.7) -> List[Dict]:
    """Base vs GeNIMA execution time as interrupts get more expensive.

    ``jitter_ratio`` scales the SMP scheduling jitter with the
    interrupt cost (they move together on real systems).
    """
    runs = _base_vs_genima(app_name, [
        MachineConfig(interrupt_us=cost, sched_jitter_us=cost * jitter_ratio)
        for cost in interrupt_costs])
    rows = []
    for cost, run in zip(interrupt_costs, runs):
        base, genima = run[BASE.name], run[GENIMA.name]
        rows.append({
            "interrupt_us": cost,
            "base_speedup": speedup(run["seq"], base),
            "genima_speedup": speedup(run["seq"], genima),
            "genima_gain_pct": 100.0 * (base.time_us / genima.time_us - 1),
        })
    return rows


def render_sensitivity(rows: List[Dict], app_name: str) -> str:
    return format_table(
        ["interrupt_us", "Base speedup", "GeNIMA speedup", "gain %"],
        [(r["interrupt_us"], r["base_speedup"], r["genima_speedup"],
          r["genima_gain_pct"]) for r in rows],
        title=f"Sensitivity: GeNIMA's advantage vs interrupt cost "
              f"({app_name})")


def scaling_study(app_name: str = "Water-spatial",
                  node_counts=(1, 2, 4, 8)) -> List[Dict]:
    """Speedup vs processor count for Base and GeNIMA, fixed size."""
    runs = _base_vs_genima(app_name, [MachineConfig(nodes=nodes)
                                      for nodes in node_counts])
    return [{"procs": run[BASE.name].nprocs,
             "base_speedup": speedup(run["seq"], run[BASE.name]),
             "genima_speedup": speedup(run["seq"], run[GENIMA.name])}
            for run in runs]


def render_scaling(rows: List[Dict], app_name: str) -> str:
    return format_table(
        ["processors", "Base", "GeNIMA"],
        [(r["procs"], r["base_speedup"], r["genima_speedup"])
         for r in rows],
        title=f"Scaling study: speedup vs system size ({app_name})")
