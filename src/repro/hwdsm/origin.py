"""A hardware cache-coherent DSM yardstick (the SGI Origin 2000 role).

Figures 1 and 4 and Table 5 compare the SVM system against a
hardware-coherent machine.  This backend runs the *same* application
op-streams with hardware-DSM costs: cache-line (128 B) coherence
granularity, sub-microsecond remote misses with multiple outstanding
misses overlapped, hardware locks and fast barriers.  It is a cost
model, not a directory-protocol simulator — its only job is to place
the hardware bars where the paper places them: far above Base SVM and
still above GeNIMA for most applications.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

from ..sim import Resource, Simulator
from ..runtime.context import Backend

__all__ = ["HWDSMConfig", "HWDSMBackend"]

_INF = float("inf")


@dataclass(frozen=True)
class HWDSMConfig:
    """Cost parameters of the hardware-coherent machine."""

    nprocs: int = 16
    cache_line: int = 128
    page_size: int = 4096
    #: latency of one remote line miss (directory + network round trip).
    line_miss_us: float = 0.9
    #: effective overlap of outstanding misses (OoO + prefetch).
    miss_overlap: float = 4.0
    #: fraction of a re-read page's lines that actually miss.
    reread_miss_fraction: float = 0.35
    #: lock acquire/release overhead (LL/SC + directory).
    lock_op_us: float = 1.5
    #: per-process barrier overhead (tree barrier).
    barrier_op_us: float = 4.0
    #: memory-bus dilation per extra active processor (small: the
    #: Origin has two processors per node and much more bandwidth).
    bus_contention_factor: float = 0.008
    procs_per_node: int = 2

    def __post_init__(self):
        # Checked here, not as a ZeroDivisionError or a wrong time at
        # the first miss, the same way MachineConfig checks its fields.
        for name in ("nprocs", "cache_line", "page_size", "procs_per_node"):
            value = getattr(self, name)
            if (not isinstance(value, int) or isinstance(value, bool)
                    or value < 1):
                raise ValueError(
                    f"{name} must be an integer >= 1, got {value!r}")
        # Range checks written so that NaN fails them too.
        for name in ("line_miss_us", "lock_op_us", "barrier_op_us",
                     "bus_contention_factor"):
            value = getattr(self, name)
            if not 0 <= value < _INF:
                raise ValueError(
                    f"{name} must be finite and >= 0, got {value!r}")
        if not 0 < self.miss_overlap < _INF:
            raise ValueError(f"miss_overlap must be finite and > 0, "
                             f"got {self.miss_overlap!r}")
        if not 0 <= self.reread_miss_fraction <= 1:
            raise ValueError(f"reread_miss_fraction must be in [0, 1], "
                             f"got {self.reread_miss_fraction!r}")

    @property
    def lines_per_page(self) -> int:
        return self.page_size // self.cache_line


class _Region:
    """Shared region with per-page version counters."""

    __slots__ = ("name", "n_pages", "version")

    def __init__(self, name: str, n_pages: int):
        self.name = name
        self.n_pages = n_pages
        self.version = [0] * n_pages

    def check(self, index: int) -> None:
        if not 0 <= index < self.n_pages:
            raise IndexError(
                f"page {index} outside region {self.name!r}")


class HWDSMBackend(Backend):
    """Runs application op-streams under hardware-DSM costs."""

    def __init__(self, config: Optional[HWDSMConfig] = None,
                 sim: Optional[Simulator] = None):
        self.config = config or HWDSMConfig()
        self.sim = sim or Simulator()
        self._regions: Dict[str, _Region] = {}
        #: per (rank, region, page): version this processor last pulled.
        self._seen: Dict[Tuple[int, str, int], int] = {}
        self._locks: Dict[int, Resource] = {}
        self._flags: Dict[int, dict] = {}
        self._barrier_epoch = 0
        self._barrier_count = 0
        self._barrier_event = self.sim.event()
        # Statistics.
        self.line_misses = 0
        self.lock_ops = 0
        self.barriers = 0

    @property
    def nprocs(self) -> int:
        return self.config.nprocs

    # ------------------------------------------------------------- regions

    def allocate(self, name, n_pages, home_policy="blocked", home_fn=None):
        if name in self._regions:
            raise ValueError(f"region {name!r} already allocated")
        region = _Region(name, n_pages)
        self._regions[name] = region
        return region

    # ----------------------------------------------------------------- ops

    def op_compute(self, rank, us, bus_intensity):
        cfg = self.config

        def gen():
            extra = cfg.bus_contention_factor * bus_intensity \
                * (cfg.procs_per_node - 1)
            yield self.sim.timeout(us * (1.0 + extra))

        return gen()

    def _miss_cost(self, rank: int, region: _Region,
                   pages: Iterable[int]) -> float:
        cfg = self.config
        lines = 0.0
        for p in pages:
            region.check(p)
            key = (rank, region.name, p)
            seen = self._seen.get(key, -1)
            current = region.version[p]
            if seen < 0:
                lines += cfg.lines_per_page  # cold: whole page streams in
            elif seen < current:
                lines += cfg.lines_per_page * cfg.reread_miss_fraction
            self._seen[key] = current
        self.line_misses += int(lines)
        return lines * cfg.line_miss_us / cfg.miss_overlap

    def op_read(self, rank, region, pages):
        cost = self._miss_cost(rank, region, pages)

        def gen():
            if cost > 0:
                yield self.sim.timeout(cost)

        return gen()

    def op_write(self, rank, region, pages, runs_per_page, bytes_per_page):
        pages = list(pages)
        cost = self._miss_cost(rank, region, pages)
        for p in pages:
            region.version[p] += 1
            # The writer's own copy stays current.
            self._seen[(rank, region.name, p)] = region.version[p]

        def gen():
            if cost > 0:
                yield self.sim.timeout(cost)

        return gen()

    # -- locks -------------------------------------------------------------

    def _lock_res(self, lock_id: int) -> Resource:
        res = self._locks.get(lock_id)
        if res is None:
            res = Resource(self.sim, 1, name=f"hwlock{lock_id}")
            self._locks[lock_id] = res
        return res

    def op_lock(self, rank, lock_id):
        res = self._lock_res(lock_id)
        self.lock_ops += 1

        def gen():
            yield self.sim.timeout(self.config.lock_op_us)
            yield res.request()

        return gen()

    def op_unlock(self, rank, lock_id):
        res = self._lock_res(lock_id)

        def gen():
            yield self.sim.timeout(self.config.lock_op_us)
            res.release()

        return gen()

    # -- flags -------------------------------------------------------------

    def _flag(self, flag_id: int) -> dict:
        flag = self._flags.get(flag_id)
        if flag is None:
            flag = {"version": 0, "waiters": [], "consumed": {}}
            self._flags[flag_id] = flag
        return flag

    def op_release_flag(self, rank, flag_id):
        flag = self._flag(flag_id)

        def gen():
            yield self.sim.timeout(self.config.lock_op_us)
            flag["version"] += 1
            version = flag["version"]
            still = []
            for want, ev in flag["waiters"]:
                if version >= want:
                    ev.succeed()
                else:
                    still.append((want, ev))
            flag["waiters"] = still

        return gen()

    def op_acquire_flag(self, rank, flag_id):
        flag = self._flag(flag_id)

        def gen():
            want = flag["consumed"].get(rank, 0) + 1
            if flag["version"] < want:
                ev = self.sim.event()
                flag["waiters"].append((want, ev))
                yield ev
            flag["consumed"][rank] = want
            yield self.sim.timeout(self.config.lock_op_us)

        return gen()

    # -- barrier --------------------------------------------------------------

    def op_barrier(self, rank):
        def gen():
            yield self.sim.timeout(self.config.barrier_op_us)
            self._barrier_count += 1
            if self._barrier_count == self.config.nprocs:
                self._barrier_count = 0
                self._barrier_epoch += 1
                self.barriers += 1
                event, self._barrier_event = \
                    self._barrier_event, self.sim.event()
                event.succeed()
            else:
                yield self._barrier_event

        return gen()
