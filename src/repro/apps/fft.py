"""FFT (SPLASH-2): radix-sqrt(n) six-step FFT with all-to-all transposes.

The paper's highest-bandwidth application: coarse-grained remote reads
during three transpose phases, barriers between phases, no locks, and
high memory-bus intensity (its compute time inflates with SMP bus
contention, Section 3.4).  Data wait dominates SVM overhead; remote
fetch removes ~45% of it (Table 1).

Decomposition: the n complex points form a sqrt(n) x sqrt(n) matrix of
rows; each process owns a contiguous band of rows (blocked homes).  A
transpose makes every process read one block from every other process
and write the transposed data into its own rows (local homes, so FFT
generates page *fetches* but almost no diff traffic).
"""

from __future__ import annotations

from .base import Application, pages_for_bytes, register

__all__ = ["FFT"]

COMPLEX_BYTES = 16  # double complex


@register
class FFT(Application):
    name = "FFT"
    bus_intensity = 0.8
    paper_params = {"log2_n": 22}  # 4M points
    #: us per point x log2(n) of local FFT work (calibrated).
    compute_per_point_log = 0.14

    def __init__(self, log2_n: int = 18):
        if log2_n < 8 or log2_n % 2:
            raise ValueError("log2_n must be even and >= 8 "
                             "(sqrt(n) row decomposition)")
        self.log2_n = log2_n
        self.n = 1 << log2_n

    # -- layout -----------------------------------------------------------

    def total_pages(self) -> int:
        return pages_for_bytes(self.n * COMPLEX_BYTES)

    def setup(self, backend):
        pages = self.total_pages()
        return {
            # source and destination arrays; blocked = row bands.
            "src": backend.allocate("fft.src", pages, home_policy="blocked"),
            "dst": backend.allocate("fft.dst", pages, home_policy="blocked"),
        }

    def _block_pages(self, region, owner: int, reader: int, nprocs: int):
        """Pages of the (reader, owner) transpose block inside the
        owner's row band."""
        band = region.n_pages // nprocs
        band_start = owner * band
        block = max(band // nprocs, 1)
        start = band_start + (reader * block) % max(band, 1)
        stop = min(start + block, region.n_pages)
        return range(start, stop)

    def _my_pages(self, region, rank: int, nprocs: int):
        band = region.n_pages // nprocs
        start = rank * band
        stop = region.n_pages if rank == nprocs - 1 else start + band
        return range(start, stop)

    # -- execution ------------------------------------------------------------

    def init_process(self, ctx, regions):
        yield from ctx.read(regions["src"],
                            self._my_pages(regions["src"], ctx.rank,
                                           ctx.nprocs))
        yield from ctx.write(regions["src"],
                             self._my_pages(regions["src"], ctx.rank,
                                            ctx.nprocs))

    def process(self, ctx, regions):
        n, p = self.n, ctx.nprocs
        phase_compute = (self.compute_per_point_log * n * self.log2_n
                         / (3 * p))
        arrays = [regions["src"], regions["dst"]]
        for phase in range(3):
            src = arrays[phase % 2]
            dst = arrays[(phase + 1) % 2]
            # Local 1-D FFTs over the rows this process owns.
            yield from ctx.compute(phase_compute)
            # Transpose: read one block from every other process's band,
            # write the transposed data into our own band.
            for step in range(1, p):
                owner = (ctx.rank + step) % p
                yield from ctx.read(src, self._block_pages(src, owner,
                                                           ctx.rank, p))
            yield from ctx.write(dst, self._my_pages(dst, ctx.rank, p),
                                 runs_per_page=1)
            yield from ctx.barrier()

