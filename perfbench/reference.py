"""Host speed, read off a fixed reference kernel timed during operations.

A shared host runs the same code at speeds that differ by up to ~1.6x,
switching every few seconds and staying slow for up to minutes: longer
than one run, so no statistic over a run's own samples removes it.  So
a small reference kernel is timed every ``every_s`` seconds while the
operations run, and each operation's time is scaled by the kernel's
mean time while it ran:

    op_ms * reference_ms / mean kernel ms during the op

The result reads as host ms on a host where the kernel takes
``reference_ms`` (``host_speed`` in spec.json).  The kernel imports
nothing from the program, so a change to the program cannot move it;
it runs the interpreter paths the simulator runs most (generators,
``heapq``, small objects, dict updates), so a slow phase slows both.
On a 2-vCPU Xeon VM, over seven 4-pass runs of the ladder, this cut the
spread (quartile distance over median) of its slowest cell, a 2.5 s
one, from 12% for its fastest pass as measured to 5%.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import heapq
import signal
import statistics
import time


class _Task:
    __slots__ = ("gen", "key")


def kernel(tasks: int = 100, steps: int = 40) -> int:
    """A tiny discrete-event loop: ``tasks`` generators of ``steps``
    timed yields each, dispatched in time order from a heap.  Returns
    the number of events dispatched."""
    table: dict = {}

    def body(key: int):
        now = 0
        for i in range(steps):
            delay = (key * 7 + i) % 13 + 1
            now += delay
            table[key, i & 7] = now
            yield delay

    heap: list = []
    seq = 0
    for key in range(tasks):
        task = _Task()
        task.gen, task.key = body(key), key
        heap.append((0, seq, task))
        seq += 1
    heapq.heapify(heap)
    dispatched = 0
    while heap:
        now, _, task = heapq.heappop(heap)
        try:
            delay = next(task.gen)
        except StopIteration:
            continue
        dispatched += 1
        seq += 1
        heapq.heappush(heap, (now + delay, seq, task))
    return dispatched


class HostSpeed:
    """Kernel timings over a run, and the scale factor for any interval.

    ``sample()`` times the kernel ``reps`` times back to back and keeps
    the fastest (one kernel run is ~3 ms, so the fastest of a few is the
    host's speed at that moment, not a scheduler hiccup).  Inside
    ``ticking()``, a timer signal samples every ``every_s`` seconds, in
    the middle of whatever runs; ``net_s()`` leaves the samples out of
    an interval's time.  Outside it, ``due()`` samples between
    operations instead, when the last sample is ``every_s`` old: the
    traced run does so, because a sample inside an operation would land
    in its timers and profile.
    """

    def __init__(self, reference_ms: float, every_s: float, reps: int):
        self.reference_ms = reference_ms
        self.every_s = every_s
        self.reps = reps
        #: perf_counter() at which each sample started, ascending.
        self.stamps: list = []
        #: the kernel's fastest ms in each sample.
        self.kernel_ms: list = []
        #: seconds each sample took.
        self.took_s: list = []
        self._ticking = False

    def sample(self) -> None:
        """Time the kernel with the collector off, so that the program's
        heap, which a collection would walk, does not enter its time."""
        perf = time.perf_counter
        stamp = perf()
        best = float("inf")
        collecting = gc.isenabled()
        gc.disable()
        try:
            for _ in range(self.reps):
                start = perf()
                kernel()
                best = min(best, perf() - start)
        finally:
            if collecting:
                gc.enable()
        self.stamps.append(stamp)
        self.kernel_ms.append(best * 1e3)
        self.took_s.append(perf() - stamp)

    @contextlib.contextmanager
    def ticking(self):
        busy = False

        def tick(signum, frame):
            nonlocal busy
            if busy:  # a tick arrived while the last one still ran
                return
            busy = True
            try:
                self.sample()
            finally:
                busy = False

        previous = signal.signal(signal.SIGALRM, tick)
        signal.setitimer(signal.ITIMER_REAL, self.every_s, self.every_s)
        self._ticking = True
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self._ticking = False

    def due(self) -> None:
        if self._ticking:
            return
        if not self.stamps or (time.perf_counter() - self.stamps[-1]
                               >= self.every_s):
            self.sample()

    def _within(self, start: float, end: float) -> tuple:
        """Index range of the samples that began between ``start`` and
        ``end`` (a tick runs to completion before the code it interrupts
        resumes, so such a sample also ended by ``end``)."""
        return (bisect.bisect_left(self.stamps, start),
                bisect.bisect_right(self.stamps, end))

    def net_s(self, start: float, end: float) -> float:
        """Seconds from ``start`` to ``end`` less the samples taken in
        between."""
        first, last = self._within(start, end)
        return end - start - sum(self.took_s[first:last])

    def scale(self, start: float, end: float) -> float:
        """``reference_ms / kernel ms`` for work that ran from ``start``
        to ``end``: the kernel ms is the mean of the samples taken in
        that interval or, if none was, of the last one before it and the
        first one after it."""
        first, last = self._within(start, end)
        around = (self.kernel_ms[first:last]
                  or self.kernel_ms[max(first - 1, 0):first + 1])
        return self.reference_ms / statistics.fmean(around)
