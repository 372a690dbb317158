"""Vector timestamps, intervals and write notices (LRC machinery).

Home-based lazy release consistency tracks causality with per-node
*intervals*: a node's execution is cut into intervals at releases and
barriers; each interval carries *write notices* (the pages the node
modified in it).  A :class:`VectorClock` records, per node, the latest
interval a process has (transitively) seen; acquiring a lock merges the
releaser's clock and obliges the acquirer to apply all write notices up
to the merged clock before touching shared data.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

__all__ = ["VectorClock", "Interval", "IntervalLog"]


class VectorClock:
    """A per-node interval counter vector."""

    __slots__ = ("_v",)

    def __init__(self, nodes: int = 0,
                 values: Optional[Iterable[int]] = None):
        if values is not None:
            self._v = list(values)
        else:
            self._v = [0] * nodes

    @property
    def values(self) -> Tuple[int, ...]:
        return tuple(self._v)

    def __len__(self) -> int:
        return len(self._v)

    def __getitem__(self, node: int) -> int:
        return self._v[node]

    def __setitem__(self, node: int, value: int) -> None:
        if value < self._v[node]:
            raise ValueError("vector clock entries never decrease")
        self._v[node] = value

    def copy(self) -> "VectorClock":
        return VectorClock(values=self._v)

    def merge(self, other: "VectorClock") -> None:
        """Pointwise maximum, in place."""
        if len(other._v) != len(self._v):
            raise ValueError("clock size mismatch")
        self._v = [max(a, b) for a, b in zip(self._v, other._v)]

    def merged(self, other: "VectorClock") -> "VectorClock":
        out = self.copy()
        out.merge(other)
        return out

    def dominates(self, other: "VectorClock") -> bool:
        """True if self >= other pointwise."""
        if len(other._v) != len(self._v):
            raise ValueError("clock size mismatch")
        return all(a >= b for a, b in zip(self._v, other._v))

    def __eq__(self, other) -> bool:
        return isinstance(other, VectorClock) and self._v == other._v

    def __hash__(self):
        return hash(tuple(self._v))

    def __repr__(self) -> str:
        return f"VectorClock({self._v})"


@dataclass
class Interval:
    """One closed interval of a node: its index and the pages it dirtied
    (its write notices)."""

    node: int
    index: int
    pages: Tuple[int, ...]


class IntervalLog:
    """Per-node history of closed intervals: the one record of write
    notices.

    Used to answer "which write notices does a process at clock ``have``
    lack, up to clock ``want``?" — the set a Base-protocol lock grant
    must carry, or that a barrier exchange distributes — and which page
    versions the notices a node has applied oblige it to see
    (:meth:`needed`).
    """

    def __init__(self, nodes: int):
        self.nodes = nodes
        self._log: List[List[Interval]] = [[] for _ in range(nodes)]
        #: gid -> writer -> the writer's intervals that wrote it.
        self._writes: Dict[int, Dict[int, List[int]]] = {}

    def append(self, interval: Interval) -> None:
        log = self._log[interval.node]
        expected = len(log) + 1
        if interval.index != expected:
            raise ValueError(
                f"node {interval.node}: interval {interval.index} "
                f"appended out of order (expected {expected})")
        log.append(interval)
        for gid in interval.pages:
            self._writes.setdefault(gid, {}).setdefault(
                interval.node, []).append(interval.index)

    def current_index(self, node: int) -> int:
        """Index of the last closed interval of ``node`` (0 if none)."""
        return len(self._log[node])

    def windows(self, have: VectorClock,
                want: VectorClock) -> Iterator[Tuple[int, Interval]]:
        """``(node, interval)`` for every closed interval in the clock
        window ``(have, want]``, node by node, each in index order.

        The one walk behind :meth:`count_between` and the protocol's
        barrier and acquire invalidation, which reads ``interval.pages``
        (the write notices) straight from it.
        """
        have_v = have._v
        want_v = want._v
        for node, log in enumerate(self._log):
            upto = want_v[node]
            if upto > len(log):
                raise ValueError(
                    f"node {node}: interval {upto} not closed yet")
            for interval in log[have_v[node]:upto]:
                yield node, interval

    def needed(self, gid: int, clock: VectorClock,
               node: int) -> Dict[int, int]:
        """The versions of ``gid`` a fault of ``node`` at ``clock`` must
        see at the home: per writer other than ``node``, ascending, the
        latest of its intervals up to ``clock[writer]`` that wrote the
        page.  A fresh dict: the protocol parks it with home waiters."""
        needed = {}
        for writer, indices in sorted(self._writes.get(gid, {}).items()):
            at = bisect_right(indices, clock._v[writer])
            if at and writer != node:
                needed[writer] = indices[at - 1]
        return needed

    def count_between(self, have: VectorClock, want: VectorClock) -> int:
        """Number of write notices (pages, counted per interval) in the
        clock window ``(have, want]``."""
        return sum(len(interval.pages)
                   for _node, interval in self.windows(have, want))
