"""The mprotect cost model (Section 3.1 / Table 2).

The only OS call the protocol uses is ``mprotect``.  A single-page call
costs ``mprotect_call_us``; the protocol coalesces calls for runs of
consecutive pages, paying one call plus a small per-page increment —
the optimization the paper describes.  Table 2's last column (MT) is
the share of total SVM overhead spent here, so the model also keeps a
per-node running total.
"""

from __future__ import annotations

from typing import Iterable

from ..hw.config import MachineConfig

__all__ = ["MprotectModel"]


class MprotectModel:
    """Per-node mprotect cost accounting."""

    def __init__(self, config: MachineConfig):
        self.config = config
        self.total_us = [0.0] * config.nodes
        self.calls = [0] * config.nodes
        self.pages_protected = [0] * config.nodes

    def protect(self, node: int, pages: Iterable[int]) -> float:
        """Account one protection change on ``node``; returns its cost.

        One call per maximal run of consecutive page ids, counted
        without sorting (a page starts a run iff its predecessor is
        absent).
        """
        uniq = set(pages)
        n_runs = len([p for p in uniq if p - 1 not in uniq])
        cfg = self.config
        cost = (n_runs * cfg.mprotect_call_us
                + (len(uniq) - n_runs) * cfg.mprotect_page_us)
        if cost > 0:
            self.total_us[node] += cost
            self.calls[node] += n_runs
            self.pages_protected[node] += len(uniq)
        return cost

    @property
    def grand_total_us(self) -> float:
        return sum(self.total_us)
