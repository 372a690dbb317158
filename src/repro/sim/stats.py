"""Lightweight statistics helpers used across the simulator.

The paper reports means, breakdown percentages and contention ratios;
:class:`RunningStat` accumulates the moments those need without storing
samples, and :class:`TimeBuckets` is the per-process execution-time
breakdown accumulator behind Figure 3.

**Time-accounting rule**: every blocked microsecond of a rank's timed
section lands in exactly one of the :data:`BUCKETS`, so each rank's
bucket total equals its wall time within :data:`TIME_TOLERANCE_US`.
``RunResult.residual_us`` computes the per-rank residual once; the
runtime invariant checker, the profile (``Profile.accounting_ok``) and
the sanitizer's ``time-accounting`` pass all read that number.

**Message-accounting convention** (used by ``VMMC.messages_sent`` /
``bytes_sent`` and everything derived from them, e.g. the ``messages``
and ``bytes`` columns of the experiment tables): counts are per
*destination packet stream*.  A unicast send counts one message of
``size`` bytes; a multicast to ``k`` destinations counts ``k``
messages and ``k * size`` bytes, exactly as if it were ``k`` unicast
sends — the NI-multicast saving shows up in host post overhead and
source DMA, not in the wire-traffic accounting.

:class:`SeededStream` is the seeded random stream of the per-node
scheduling jitter and the per-link fault decisions: the draws of a
``random.Random(key)``, held a window at a time.
"""

from __future__ import annotations

import math
import random
from array import array
from itertools import repeat, starmap
from typing import Dict, Iterable, List, Optional, Union

__all__ = ["BUCKETS", "RunningStat", "SeededStream", "TIME_TOLERANCE_US",
           "TimeBuckets", "weighted_mean"]


class RunningStat:
    """Streaming count / mean / variance / min / max accumulator."""

    __slots__ = ("count", "_mean", "_m2", "min", "max", "total")

    def __init__(self):
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.total = 0.0

    def add(self, x: float) -> None:
        self.count += 1
        self.total += x
        delta = x - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (x - self._mean)
        if x < self.min:
            self.min = x
        if x > self.max:
            self.max = x

    def extend(self, xs: Iterable[float]) -> None:
        for x in xs:
            self.add(x)

    @property
    def mean(self) -> float:
        return self._mean if self.count else 0.0

    @property
    def variance(self) -> float:
        return self._m2 / (self.count - 1) if self.count > 1 else 0.0

    @property
    def stdev(self) -> float:
        return math.sqrt(self.variance)

    def merge(self, other: "RunningStat") -> "RunningStat":
        """Combine two accumulators (Chan's parallel algorithm).

        An empty side contributes nothing: its sentinel ``inf``/
        ``-inf`` min/max never reach the merged accumulator, and
        merging two empties yields an empty (not a NaN mean or an
        infinite range in a report).
        """
        merged = RunningStat()
        n = self.count + other.count
        if n == 0:
            return merged
        if self.count == 0 or other.count == 0:
            src = other if self.count == 0 else self
            merged.count = src.count
            merged.total = src.total
            merged._mean = src._mean
            merged._m2 = src._m2
            merged.min = src.min
            merged.max = src.max
            return merged
        delta = other._mean - self._mean
        merged.count = n
        merged.total = self.total + other.total
        merged._mean = self._mean + delta * other.count / n
        merged._m2 = (
            self._m2 + other._m2
            + delta * delta * self.count * other.count / n
        )
        merged.min = min(self.min, other.min)
        merged.max = max(self.max, other.max)
        return merged

    def __repr__(self) -> str:
        if not self.count:
            return "RunningStat(n=0)"
        return (f"RunningStat(n={self.count}, mean={self.mean:.3f}, "
                f"min={self.min:.3f}, max={self.max:.3f})")


# Execution-time bucket names, in the order Figure 3 stacks them.
BUCKETS = ("compute", "data", "lock", "acqrel", "barrier")

#: |sum(buckets) - wall| beyond this is an accounting bug (microseconds).
TIME_TOLERANCE_US = 1e-6


class TimeBuckets:
    """Per-process execution-time breakdown (Figure 3 categories).

    ``compute``  useful work including local memory stalls,
    ``data``     blocked on remote page fetches,
    ``lock``     blocked on mutual-exclusion lock acquires,
    ``acqrel``   acquire/release primitives used purely for consistency,
    ``barrier``  blocked at barriers (wait + barrier protocol work).
    """

    __slots__ = tuple(BUCKETS)

    def __init__(self):
        for name in BUCKETS:
            setattr(self, name, 0.0)

    def charge(self, bucket: str, amount: float) -> None:
        if amount < 0:
            raise ValueError(f"negative charge {amount!r} to {bucket!r}")
        setattr(self, bucket, getattr(self, bucket) + amount)

    @property
    def total(self) -> float:
        return sum(getattr(self, name) for name in BUCKETS)

    def as_dict(self) -> Dict[str, float]:
        return {name: getattr(self, name) for name in BUCKETS}

    @classmethod
    def from_dict(cls, data: Dict[str, float]) -> "TimeBuckets":
        """Inverse of :meth:`as_dict` (used by the run-cache codec).
        A missing bucket raises ``KeyError``: a malformed stored result
        must be recomputed, not read as no time in that category."""
        buckets = cls.__new__(cls)
        for name in BUCKETS:
            setattr(buckets, name, float(data[name]))
        return buckets

    @staticmethod
    def average(buckets: List["TimeBuckets"]) -> "TimeBuckets":
        """Mean breakdown across processes (as Figure 3 averages)."""
        avg = TimeBuckets()
        if not buckets:
            return avg
        for name in BUCKETS:
            avg.charge(name, sum(getattr(b, name) for b in buckets)
                       / len(buckets))
        return avg

    def __repr__(self) -> str:
        parts = ", ".join(f"{n}={getattr(self, n):.1f}" for n in BUCKETS)
        return f"TimeBuckets({parts})"


def weighted_mean(pairs: Iterable[tuple]) -> float:
    """Mean of ``(value, weight)`` pairs; 0.0 when total weight is 0."""
    num = 0.0
    den = 0.0
    for value, weight in pairs:
        num += value * weight
        den += weight
    return num / den if den else 0.0


class SeededStream:
    """The draws of ``random.Random(key)``, without keeping its state.

    A ``random.Random`` carries 2.5 KB of Mersenne Twister state, and a
    fault-injected 256-node run seeds one per link to draw about four
    floats from each.  A stream returns exactly the floats
    ``random.Random(key)`` would return through :meth:`random`,
    :meth:`uniform` and :meth:`expovariate` (CPython's expressions),
    but holds only the next few of them.  It seeds nothing until the
    first draw.  When its window runs out it re-seeds, skips the draws
    already made and refills a window as large as all of them, at least
    :attr:`FIRST_WINDOW`, so a stream of n draws seeds O(log n) times.
    A stream that has made :attr:`KEEP_AFTER` draws keeps its generator
    instead: a larger window would outweigh the state it replaces.
    """

    __slots__ = ("_key", "_window", "_drawn", "_rng")

    #: draws in the first window.  The links of perfbench's 256-node
    #: lossy KVStore/Base cell draw 1-34 times (median 3); 16 leaves
    #: ~4% of them one re-seed.
    FIRST_WINDOW = 16
    #: 256 doubles are 2 KB, about the Mersenne Twister's 624 words.
    KEEP_AFTER = 256

    def __init__(self, key: Union[int, str]):
        self._key = key
        #: the next draws, last one first (``pop`` takes the next).
        self._window: Optional[array] = None
        #: draws the generator has produced so far.
        self._drawn = 0
        self._rng: Optional[random.Random] = None

    def random(self) -> float:
        window = self._window
        if window:
            return window.pop()
        return self._refill()

    def uniform(self, a: float, b: float) -> float:
        return a + (b - a) * self.random()

    def expovariate(self, lambd: float) -> float:
        return -math.log(1.0 - self.random()) / lambd

    def _refill(self) -> float:
        rng = self._rng
        if rng is not None:
            return rng.random()
        rng = random.Random(self._key)
        drawn = self._drawn
        # Each random() consumes two 32-bit outputs; getrandbits
        # consumes one per 32 bits, so this skips the drawn floats.
        rng.getrandbits(64 * drawn)
        if drawn >= self.KEEP_AFTER:
            self._rng = rng
            self._window = None
            return rng.random()
        size = max(self.FIRST_WINDOW, drawn)
        window = array("d", starmap(rng.random, repeat((), size)))
        window.reverse()
        self._window = window
        self._drawn = drawn + size
        return window.pop()
