"""Shared pages, regions and per-node page tables.

The shared virtual address space is a set of named *regions*, each a
contiguous range of 4 KB pages.  Every page has a static *home* node
(HLRC): all updates are propagated to the home, and non-home nodes
fetch the full page from it on a miss.

Page state is tracked per (node, page) — HLRC-SMP shares protocol
state among the processes of an SMP node, exploiting the node's
hardware coherence.  Regions may optionally be *concrete*: the home
copies then hold real bytes, and twins/diffs operate on data (used by
the functional examples and correctness tests).
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..hw.config import MachineConfig
from .diffs import DiffShape

__all__ = ["PageAccess", "SharedRegion", "PageDirectory",
           "NodePageTable", "HomePage"]


class PageAccess(enum.Enum):
    """Protection state of a page at one node."""

    INVALID = 0   # any access faults
    READ = 1      # reads hit; writes fault (twin + upgrade)
    WRITE = 2     # twinned and writable


class SharedRegion:
    """A named, contiguous range of shared pages."""

    def __init__(self, name: str, base: int, n_pages: int,
                 homes: List[Optional[int]], page_size: int,
                 concrete: bool = False):
        if n_pages < 1:
            raise ValueError("region needs at least one page")
        if len(homes) != n_pages:
            raise ValueError("one home per page required")
        self.name = name
        self.base = base
        self.n_pages = n_pages
        self.homes = homes
        self.page_size = page_size
        self.concrete = concrete
        #: authoritative home copies, only for concrete regions.
        self.data: Optional[List[bytearray]] = (
            [bytearray(page_size) for _ in range(n_pages)]
            if concrete else None)

    def check_index(self, index: int) -> None:
        if not 0 <= index < self.n_pages:
            raise IndexError(
                f"page {index} outside region {self.name!r} "
                f"(size {self.n_pages})")

    def gid(self, index: int) -> int:
        """Global page id of the region's ``index``-th page."""
        self.check_index(index)
        return self.base + index

    def home_of(self, index: int) -> int:
        return self.homes[index]


class PageDirectory:
    """Allocates regions and maps global page ids to homes/regions."""

    def __init__(self, config: MachineConfig):
        self.config = config
        self.regions: Dict[str, SharedRegion] = {}
        #: regions in allocation order, and their bases (ascending:
        #: regions are laid out back to back) for the bisect lookup.
        self._by_base: List[SharedRegion] = []
        self._bases: List[int] = []
        self._next_base = 0

    def allocate(self, name: str, n_pages: int,
                 home_policy: str = "blocked",
                 home_fn: Optional[Callable[[int], int]] = None,
                 concrete: bool = False) -> SharedRegion:
        """Create a region of ``n_pages`` shared pages.

        ``home_policy``:
          * ``"blocked"``     — contiguous chunks per node (the common
            first-touch outcome for block-partitioned SPLASH-2 data);
          * ``"round_robin"`` — page i homes on node i % nodes;
          * ``"node:k"``      — everything on node k;
          * ``"custom"``      — use ``home_fn(page_index)``;
          * ``"first_touch"`` — homes are assigned dynamically at the
            first access (the paper's "page home allocation requests",
            infrequent and off the critical path).
        """
        if name in self.regions:
            raise ValueError(f"region {name!r} already allocated")
        nodes = self.config.nodes
        if home_policy == "first_touch":
            homes = [None] * n_pages
        elif home_policy == "blocked":
            per = max((n_pages + nodes - 1) // nodes, 1)
            homes = [min(i // per, nodes - 1) for i in range(n_pages)]
        elif home_policy == "round_robin":
            homes = [i % nodes for i in range(n_pages)]
        elif home_policy.startswith("node:"):
            k = int(home_policy.split(":", 1)[1])
            if not 0 <= k < nodes:
                raise ValueError(f"home node {k} out of range")
            homes = [k] * n_pages
        elif home_policy == "custom":
            if home_fn is None:
                raise ValueError("custom policy requires home_fn")
            homes = [home_fn(i) for i in range(n_pages)]
            if any(not 0 <= h < nodes for h in homes):
                raise ValueError("home_fn produced node out of range")
        else:
            raise ValueError(f"unknown home policy {home_policy!r}")
        region = SharedRegion(name, self._next_base, n_pages, homes,
                              self.config.page_size, concrete=concrete)
        self.regions[name] = region
        self._by_base.append(region)
        self._bases.append(region.base)
        self._next_base += n_pages
        return region

    @property
    def total_pages(self) -> int:
        return self._next_base

    def region_of(self, gid: int) -> SharedRegion:
        # Regions tile [0, total_pages): the last base <= gid owns it.
        if not 0 <= gid < self._next_base:
            raise KeyError(f"gid {gid} not allocated")
        return self._by_base[bisect_right(self._bases, gid) - 1]

    def home_of(self, gid: int) -> int:
        region = self.region_of(gid)
        return region.homes[gid - region.base]


@dataclass
class HomePage:
    """Home-side version state of one page.

    ``applied[n]`` is the latest interval of node ``n`` whose diff has
    been applied to the home copy.  A fetch of this page is *valid* for
    a requester needing versions ``needed`` iff ``applied >= needed``
    pointwise — the check behind the remote-fetch retry loop.
    """

    applied: Dict[int, int] = field(default_factory=dict)

    def snapshot(self) -> Dict[int, int]:
        return dict(self.applied)

    def satisfies(self, needed: Dict[int, int]) -> bool:
        return all(self.applied.get(n, 0) >= v for n, v in needed.items())

    @staticmethod
    def snapshot_satisfies(snapshot: Dict[int, int],
                           needed: Dict[int, int]) -> bool:
        return all(snapshot.get(n, 0) >= v for n, v in needed.items())


class NodePageTable:
    """Per-node page table: access state and dirty shapes.

    A 256-node Base run holds tens of thousands of (node, page) states,
    so the table keeps only what the protocol sets, in two maps:

    * ``_access`` — the pages that are not INVALID; a missing page is
      INVALID, and an invalidation pops it;
    * ``dirty_pages`` — pages written in the current interval, with
      their accumulated write shape; a page is twinned exactly when it
      is in this map.

    A fault's needed versions come from the interval log and the node's
    clock (:meth:`repro.svm.timestamps.IntervalLog.needed`).
    """

    def __init__(self, node: int, config: MachineConfig):
        self.node = node
        self.config = config
        self._access: Dict[int, PageAccess] = {}
        #: pages dirtied in the node's current interval.
        self.dirty_pages: Dict[int, DiffShape] = {}
        #: optional hook(node, gid, old, new, why) observing protection
        #: changes — installed by the analysis invariant checker.
        self.on_transition = None
        # Counters.
        self.read_faults = 0
        self.write_faults = 0
        self.invalidations = 0

    def access(self, gid: int) -> PageAccess:
        return self._access.get(gid, PageAccess.INVALID)

    # -- faults ------------------------------------------------------------

    def _transition(self, gid: int, old: PageAccess, new: PageAccess,
                    why: str) -> None:
        if self.on_transition is not None and old is not new:
            self.on_transition(self.node, gid, old, new, why)

    def mark_valid(self, gid: int, writable: bool = False,
                   why: str = "fault") -> None:
        old = self._access.get(gid, PageAccess.INVALID)
        new = PageAccess.WRITE if writable else PageAccess.READ
        self._access[gid] = new
        self._transition(gid, old, new, why)

    def record_write(self, gid: int, shape: DiffShape) -> bool:
        """Note a write to ``gid`` this interval.

        Returns True if this is the first write (twin must be made).
        """
        dirty = self.dirty_pages.get(gid)
        old = self._access.get(gid, PageAccess.INVALID)
        self._access[gid] = PageAccess.WRITE
        self._transition(gid, old, PageAccess.WRITE, "write")
        if dirty is None:
            self.dirty_pages[gid] = shape
            return True
        self.dirty_pages[gid] = dirty.merge(shape)
        return False

    # -- interval close ------------------------------------------------------

    def take_dirty(self) -> Dict[int, DiffShape]:
        """Consume the current interval's dirty set.

        Twins are dropped and dirtied pages downgrade to READ so the
        next interval re-twins on first write (write-protect cost is
        charged by the caller via the mprotect model).
        """
        dirty = self.dirty_pages
        self.dirty_pages = {}
        access = self._access
        for gid in dirty:
            if access.get(gid) is PageAccess.WRITE:
                access[gid] = PageAccess.READ
                self._transition(gid, PageAccess.WRITE, PageAccess.READ,
                                 "close")
        return dirty

    # -- invalidations -----------------------------------------------------------

    def invalidate(self, gid: int, is_home: bool = False) -> bool:
        """Apply one write notice.  Returns True if protection changed
        (i.e. an mprotect is actually needed for this page).  HLRC homes
        never lose access: incoming diffs keep their copy current.
        """
        self.invalidations += 1
        if is_home:
            return False
        old = self._access.pop(gid, None)
        if old is None:
            return False
        self._transition(gid, old, PageAccess.INVALID, "invalidate")
        return True
