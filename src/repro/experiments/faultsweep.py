"""Fault sweep: completion time vs. injected packet-loss rate.

Not a paper experiment — a robustness study of the GeNIMA mechanisms
under the imperfect fabric of :mod:`repro.faults`.  For each loss rate
the app runs to completion on the drop-tolerant transport; the table
reports wall time, slowdown relative to the fault-free fabric, and the
recovery traffic (drops, retransmits, duplicate discards).  The
``loss=0`` row runs with ``faults=None``: the genuinely perfect
crossbar, not merely a lossless lossy fabric (acks and watchdogs are
absent too, so it is the true zero-overhead baseline).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..hw import FaultConfig, MachineConfig
from .cache import ExperimentCache
from .reporting import format_table

__all__ = ["compute_faultsweep", "render_faultsweep", "DEFAULT_LOSS_RATES"]

DEFAULT_LOSS_RATES = (0.0, 0.01, 0.02, 0.05, 0.1)

#: width of the ASCII slowdown bar in the rendered table.
_BAR_WIDTH = 30


def compute_faultsweep(app_name: str, features,
                       loss_rates: Sequence[float] = DEFAULT_LOSS_RATES,
                       seed: int = 1,
                       config: Optional[MachineConfig] = None,
                       jitter_us: float = 0.0,
                       cache: Optional[ExperimentCache] = None) -> List[Dict]:
    """Run ``app_name`` under ``features`` across ``loss_rates``.

    Each loss rate is an independent grid cell, so a parallel/persistent
    ``cache`` fans the sweep out and memoizes it; rows come back in
    ``loss_rates`` order regardless of completion order.
    """
    base = config or MachineConfig()
    if cache is None:
        cache = ExperimentCache(config=base)

    def cfg_for(loss: float) -> MachineConfig:
        if loss == 0.0 and jitter_us == 0.0:
            return base.scaled(faults=None)
        return base.scaled(faults=FaultConfig(
            loss=loss, jitter_us=jitter_us, seed=seed))

    runs = cache.run({i: cache.spec_svm(app_name, features,
                                        config=cfg_for(loss))
                      for i, loss in enumerate(loss_rates)})
    rows: List[Dict] = []
    for loss, result in zip(loss_rates, runs.values()):
        rows.append({
            "loss": loss,
            "time_us": result.time_us,
            "drops": result.stats.get("packets_dropped", 0),
            "retransmits": result.stats.get("retransmits", 0),
            "dup_discards": result.stats.get("dup_discards", 0),
        })
    return rows


def render_faultsweep(rows: List[Dict], app_name: str,
                      protocol_name: str) -> str:
    """Table + ASCII plot of completion time vs. loss rate."""
    baseline = rows[0]["time_us"] if rows else 1.0
    worst = max((r["time_us"] / baseline for r in rows), default=1.0)
    table_rows = []
    for r in rows:
        slowdown = r["time_us"] / baseline
        bar = "#" * max(1, round(_BAR_WIDTH * slowdown / worst))
        table_rows.append((
            f"{r['loss']:.3f}",
            f"{r['time_us'] / 1000:.1f}",
            f"{slowdown:5.2f}x",
            str(r["drops"]),
            str(r["retransmits"]),
            str(r["dup_discards"]),
            bar,
        ))
    return format_table(
        ["Loss", "Time (ms)", "Slowdown", "Drops", "Retx",
         "DupDisc", "Time vs loss"],
        table_rows,
        title=(f"{app_name} / {protocol_name}: completion time vs. "
               f"packet loss"))
