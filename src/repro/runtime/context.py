"""The parallel programming interface applications run against.

An application defines one generator per process (rank); the generator
receives a :class:`ParallelContext` and drives shared-memory work
through it.  The same application code runs unchanged on three
backends:

* the SVM cluster (``repro.svm.HLRCProtocol`` on the simulated testbed),
* the hardware-DSM yardstick (``repro.hwdsm``, the Origin-2000 stand-in),
* the uniprocessor baseline (sequential time for speedups — "without
  linking to the SVM library", per the paper's methodology).
"""

from __future__ import annotations

import abc
from typing import Iterable, Optional

__all__ = ["ParallelContext", "Backend"]


class Backend(abc.ABC):
    """What a runtime must provide to host an application."""

    @abc.abstractmethod
    def allocate(self, name: str, n_pages: int, home_policy: str = "blocked",
                 home_fn=None):
        """Create a shared region of ``n_pages``."""

    @abc.abstractmethod
    def op_compute(self, rank: int, us: float, bus_intensity: float):
        ...

    @abc.abstractmethod
    def op_read(self, rank: int, region, pages: Iterable[int]):
        ...

    @abc.abstractmethod
    def op_write(self, rank: int, region, pages: Iterable[int],
                 runs_per_page: int, bytes_per_page: Optional[int]):
        ...

    @abc.abstractmethod
    def op_lock(self, rank: int, lock_id: int):
        ...

    @abc.abstractmethod
    def op_unlock(self, rank: int, lock_id: int):
        ...

    @abc.abstractmethod
    def op_acquire_flag(self, rank: int, flag_id: int):
        ...

    @abc.abstractmethod
    def op_release_flag(self, rank: int, flag_id: int):
        ...

    @abc.abstractmethod
    def op_barrier(self, rank: int):
        ...

    def close(self) -> None:
        """End of the backend's one run (``run_on_backend`` calls it).

        A backend whose parts name each other breaks those reference
        cycles here, so that dropping it frees it by reference
        counting.  Its counters stay readable; it runs nothing more.
        """


class ParallelContext:
    """Per-rank handle an application generator uses for all its work.

    All methods are generators: application code writes
    ``yield from ctx.read(region, pages)`` etc.
    """

    __slots__ = ("backend", "rank", "nprocs", "bus_intensity")

    def __init__(self, backend: Backend, rank: int, nprocs: int,
                 bus_intensity: float = 0.0):
        self.backend = backend
        self.rank = rank
        self.nprocs = nprocs
        #: default memory-bus intensity for this app's compute phases.
        self.bus_intensity = bus_intensity

    # -- work ---------------------------------------------------------------

    def compute(self, us: float, bus_intensity: Optional[float] = None):
        """Local computation of ``us`` microseconds (pre-contention)."""
        intensity = self.bus_intensity if bus_intensity is None \
            else bus_intensity
        return self.backend.op_compute(self.rank, us, intensity)

    def read(self, region, pages: Iterable[int]):
        """Touch shared pages for reading."""
        return self.backend.op_read(self.rank, region, pages)

    def write(self, region, pages: Iterable[int], runs_per_page: int = 1,
              bytes_per_page: Optional[int] = None):
        """Modify shared pages.  ``runs_per_page`` expresses how
        scattered the writes are (contiguous update = 1); it governs
        direct-diff message counts."""
        return self.backend.op_write(self.rank, region, pages,
                                     runs_per_page, bytes_per_page)

    # -- synchronization -------------------------------------------------------

    def lock(self, lock_id: int):
        return self.backend.op_lock(self.rank, lock_id)

    def unlock(self, lock_id: int):
        return self.backend.op_unlock(self.rank, lock_id)

    def acquire_flag(self, flag_id: int):
        return self.backend.op_acquire_flag(self.rank, flag_id)

    def release_flag(self, flag_id: int):
        return self.backend.op_release_flag(self.rank, flag_id)

    def barrier(self):
        return self.backend.op_barrier(self.rank)

    # -- partitioning helpers ---------------------------------------------------

    def my_slice(self, n: int):
        """This rank's contiguous share of ``n`` items: (start, stop)."""
        per = n // self.nprocs
        extra = n % self.nprocs
        start = self.rank * per + min(self.rank, extra)
        stop = start + per + (1 if self.rank < extra else 0)
        return start, stop

    def my_items(self, n: int) -> range:
        start, stop = self.my_slice(n)
        return range(start, stop)
