"""Backend adapters: SVM cluster and uniprocessor baseline."""

from __future__ import annotations

from typing import Optional

from ..analysis.invariants import InvariantChecker
from ..hw import Machine, MachineConfig
from ..sim import SpanTracer
from ..svm import HLRCProtocol, ProtocolFeatures
from ..vmmc import PerfMonitor, VMMC
from .context import Backend

__all__ = ["SVMBackend", "LocalBackend"]


class SVMBackend(Backend):
    """The shared-virtual-memory cluster (the paper's system)."""

    def __init__(self, config: MachineConfig, features: ProtocolFeatures,
                 tracer=None, check: bool = False, spans: bool = False):
        self.machine = Machine(config)
        self.spans = None
        if spans:
            if tracer is None:
                raise ValueError("spans=True requires a tracer")
            self.spans = SpanTracer(tracer, self.machine.sim)
        self.vmmc = VMMC(self.machine, spans=self.spans)
        self.monitor = PerfMonitor(self.machine)
        self.protocol = HLRCProtocol(self.machine, features,
                                     vmmc=self.vmmc, tracer=tracer,
                                     spans=self.spans)
        if tracer is not None:
            self.machine.attach_tracer(tracer)
        if self.spans is not None:
            self.machine.attach_spans(self.spans)
        self.config = config
        self.features = features
        self.invariants = None
        if check:
            self.invariants = InvariantChecker(self.protocol).install()

    @property
    def sim(self):
        return self.machine.sim

    @property
    def nprocs(self) -> int:
        return self.config.total_procs

    def allocate(self, name, n_pages, home_policy="blocked", home_fn=None):
        return self.protocol.allocate(name, n_pages,
                                      home_policy=home_policy,
                                      home_fn=home_fn)

    def op_compute(self, rank, us, bus_intensity):
        return self.protocol.compute(rank, us, bus_intensity)

    def op_read(self, rank, region, pages):
        return self.protocol.read(rank, region, pages)

    def op_write(self, rank, region, pages, runs_per_page, bytes_per_page):
        return self.protocol.write(rank, region, pages,
                                   runs_per_page=runs_per_page,
                                   bytes_per_page=bytes_per_page)

    def op_lock(self, rank, lock_id):
        return self.protocol.lock(rank, lock_id)

    def op_unlock(self, rank, lock_id):
        return self.protocol.unlock(rank, lock_id)

    def op_acquire_flag(self, rank, flag_id):
        return self.protocol.acquire_flag(rank, flag_id)

    def op_release_flag(self, rank, flag_id):
        return self.protocol.release_flag(rank, flag_id)

    def op_barrier(self, rank):
        return self.protocol.barrier(rank)

    def close(self) -> None:
        if self.invariants is not None:
            # The checker and the protocol name each other while the
            # checker is installed.
            self.invariants.uninstall()
        self.machine.close()


class LocalBackend(Backend):
    """Uniprocessor run: the plain sequential program.

    Per the paper's methodology, speedups compare against the
    sequential version *without* the SVM library: shared-memory
    operations cost nothing here, only compute advances time (with no
    bus contention — a single processor owns the node).
    """

    def __init__(self, config: Optional[MachineConfig] = None):
        cfg = (config or MachineConfig()).scaled(nodes=1, procs_per_node=1)
        self.machine = Machine(cfg)
        self.config = cfg

    @property
    def sim(self):
        return self.machine.sim

    @property
    def nprocs(self) -> int:
        return 1

    def allocate(self, name, n_pages, home_policy="blocked", home_fn=None):
        # Regions are inert locally; return a lightweight stand-in that
        # still bounds page indices.
        return _LocalRegion(name, n_pages)

    def op_compute(self, rank, us, bus_intensity):
        def gen():
            yield self.sim.timeout(us)
        return gen()

    def _noop(self):
        return
        yield  # pragma: no cover - makes this a generator function

    def op_read(self, rank, region, pages):
        for p in pages:
            region.check(p)
        return self._noop()

    def op_write(self, rank, region, pages, runs_per_page, bytes_per_page):
        for p in pages:
            region.check(p)
        return self._noop()

    def op_lock(self, rank, lock_id):
        return self._noop()

    def op_unlock(self, rank, lock_id):
        return self._noop()

    def op_acquire_flag(self, rank, flag_id):
        return self._noop()

    def op_release_flag(self, rank, flag_id):
        return self._noop()

    def op_barrier(self, rank):
        return self._noop()

    def close(self) -> None:
        self.machine.close()


class _LocalRegion:
    """Bounds-checked stand-in for a shared region on one processor."""

    __slots__ = ("name", "n_pages")

    def __init__(self, name: str, n_pages: int):
        self.name = name
        self.n_pages = n_pages

    def check(self, index: int) -> None:
        if not 0 <= index < self.n_pages:
            raise IndexError(
                f"page {index} outside region {self.name!r} "
                f"(size {self.n_pages})")
