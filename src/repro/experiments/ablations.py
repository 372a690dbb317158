"""Ablations for the design points Section 3.3 discusses in prose.

1. **Head-of-line blocking** (Water-nsquared/DW): lock messages share
   one NI-to-host delivery FIFO with data in every protocol except
   NIL.  We measure lock time with and without NI locks under the same
   eager-invalidation traffic — the isolated version of the paper's
   "control messages stuck behind data" finding.

2. **Post-queue size** (Barnes-spatial/DD): the direct-diff message
   blow-up stalls the host on a full post queue; the paper suggests a
   larger post queue or faster draining as remedies (its NT experiment
   with deeper outgoing pipelining recovered the lost speedup).  We
   sweep the post-queue depth.

3. **Diff scatter** (Barnes-spatial): direct-diff cost against the
   number of modified runs per page — where the packed/direct
   crossover falls.

4. **Eager vs lazy write notices**: message-count and time cost of
   DW's eager broadcast against the Base piggyback, on a lock-heavy
   workload.

Each study reads its cells through the process-wide run cache in one
batch; the Base and DW cells of ablations 1 and 4 are the same cells.
"""

from __future__ import annotations

from typing import Dict, List

from ..hw import MachineConfig
from ..runtime import speedup
from ..svm import BASE, DW, DW_RF_DD, GENIMA, ProtocolFeatures
from ..apps import BarnesSpatial, WaterNsquared
from .cache import grid_cache, run_rows
from .reporting import format_table

__all__ = [
    "ablate_hol_blocking",
    "ablate_post_queue",
    "ablate_diff_scatter",
    "ablate_eager_wn",
    "render_ablation",
]

BARNES = BarnesSpatial.name


def _water_runs(variants, molecules: int):
    """``(features, result)`` per variant: one-step Water-nsquared at
    ``molecules``, read through the run cache in one batch."""
    cache = grid_cache()
    runs = cache.run({i: cache.spec_svm(WaterNsquared.name, feats,
                                        molecules=molecules, steps=1)
                      for i, feats in enumerate(variants)})
    return zip(variants, runs.values())


def ablate_hol_blocking(molecules: int = 512) -> List[Dict]:
    """Water-nsquared lock time: DW (locks share the delivery FIFO)
    vs GeNIMA (locks handled in NI firmware)."""
    rows = []
    for feats, res in _water_runs((BASE, DW, GENIMA), molecules):
        rows.append({
            "protocol": feats.name,
            "lock_ms": res.mean_breakdown.lock / 1000.0,
            "time_ms": res.time_us / 1000.0,
            "messages": res.stats["messages"],
        })
    return rows


def ablate_post_queue(depths=(16, 64, 256),
                      ni_speeds=(5.0, 2.0)) -> List[Dict]:
    """Barnes-spatial under direct diffs: post-queue depth vs NI
    message-handling speed.

    The paper's remedies for the direct-diff blow-up are (i) a larger
    post queue and (iii) faster pipelining of successive messages
    through the NI (their NT experiment with (iii) recovered the lost
    speedup).  In this model the flood binds on per-message NI
    processing, so the pipelining/speed axis is the one that moves the
    result; queue depth alone absorbs bursts but not sustained rate.
    """
    cache = grid_cache()
    grid = [(ni_proc, depth) for ni_proc in ni_speeds for depth in depths]
    runs = run_rows(cache, [
        {"res": cache.spec_svm(BARNES, DW_RF_DD, config=MachineConfig(
            post_queue_len=depth, ni_proc_us=ni_proc))}
        for ni_proc, depth in grid], seq=cache.spec_seq(BARNES))
    rows = []
    for (ni_proc, depth), run in zip(grid, runs):
        rows.append({
            "ni_proc_us": ni_proc,
            "post_queue": depth,
            "speedup": speedup(run["seq"], run["res"]),
            "barrier_ms": run["res"].mean_breakdown.barrier / 1000.0,
        })
    return rows


def ablate_diff_scatter(runs_values=(1, 4, 10, 20, 30)) -> List[Dict]:
    """Direct vs packed diffs as within-page write scatter grows."""
    cache = grid_cache()
    packed_diffs = ProtocolFeatures(direct_writes=True, remote_fetch=True)
    results = run_rows(cache, [
        {"seq": cache.spec_seq(BARNES, scatter_runs=runs),
         "packed": cache.spec_svm(BARNES, packed_diffs, scatter_runs=runs),
         "direct": cache.spec_svm(BARNES, DW_RF_DD, scatter_runs=runs)}
        for runs in runs_values])
    rows = []
    for runs, run in zip(runs_values, results):
        seq, packed, direct = run["seq"], run["packed"], run["direct"]
        rows.append({
            "runs_per_page": runs,
            "packed_speedup": speedup(seq, packed),
            "direct_speedup": speedup(seq, direct),
            "direct_messages": direct.stats["messages"],
            "packed_messages": packed.stats["messages"],
        })
    return rows


def ablate_eager_wn(molecules: int = 512) -> List[Dict]:
    """Eager (DW) vs piggybacked (Base) write-notice propagation."""
    rows = []
    for feats, res in _water_runs((BASE, DW), molecules):
        rows.append({
            "protocol": feats.name,
            "wn_messages": res.stats["wn_messages"],
            "messages": res.stats["messages"],
            "time_ms": res.time_us / 1000.0,
        })
    return rows


def render_ablation(rows: List[Dict], title: str) -> str:
    if not rows:
        return title + "\n(no data)"
    headers = list(rows[0])
    return format_table(headers, [tuple(r[h] for h in headers)
                                  for r in rows], title=title)
