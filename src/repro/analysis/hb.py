"""Happens-before reconstruction from protocol traces.

The protocol's vector clocks *are* its happens-before relation: an
interval ``(writer, index)`` happened-before a point of node ``n``'s
execution iff ``n``'s vector clock at that point has
``clock[writer] >= index`` (Lamport/LRC causality).  The instrumented
protocol snapshots clocks into the trace at every place they change
(``interval.close``, ``clock.advance``), so the graph can be rebuilt
offline from any :class:`~repro.sim.trace.Tracer` event stream —
ThreadSanitizer-style, but for SVM protocol actions instead of loads
and stores.

The graph reads the trace once: its constructor indexes every row by
category, and :meth:`HBGraph.rows` hands each sanitizer check only the
categories it reads, merged back into trace order.

The sanitizer (:mod:`repro.analysis.sanitizer`) also asks two
questions of this module:

* which closed intervals wrote a given page (``writes_to``), and
* was interval ``(w, i)`` ordered before trace point ``seq`` of node
  ``n`` (``happens_before``).
"""

from __future__ import annotations

import bisect
from itertools import chain
from typing import Dict, Iterable, List, Optional, Tuple

from ..sim.trace import TraceEvent

__all__ = ["ClockHistory", "HBGraph", "IntervalInfo"]


class IntervalInfo:
    """One closed interval as seen in the trace."""

    __slots__ = ("node", "index", "pages", "event")

    def __init__(self, node: int, index: int,
                 pages: Tuple[int, ...], event: TraceEvent):
        self.node = node
        self.index = index
        self.pages = pages
        self.event = event

    def __repr__(self) -> str:
        return (f"IntervalInfo(node={self.node}, index={self.index}, "
                f"pages={self.pages})")


class ClockHistory:
    """Per-node time series of vector-clock snapshots, keyed by event
    sequence number (the tracer's total order)."""

    def __init__(self) -> None:
        #: node -> parallel lists of (seq, clock-tuple), seq ascending.
        self._seqs: Dict[int, List[int]] = {}
        self._clocks: Dict[int, List[Tuple[int, ...]]] = {}

    def add(self, node: int, seq: int, clock: Tuple[int, ...]) -> None:
        self._seqs.setdefault(node, []).append(seq)
        self._clocks.setdefault(node, []).append(tuple(clock))

    def nodes(self) -> Iterable[int]:
        return self._seqs.keys()

    def snapshots(self, node: int) -> List[Tuple[int, Tuple[int, ...]]]:
        return list(zip(self._seqs.get(node, []),
                        self._clocks.get(node, [])))

    def clock_at(self, node: int, seq: int) -> Optional[Tuple[int, ...]]:
        """Latest recorded clock of ``node`` at or before trace ``seq``."""
        seqs = self._seqs.get(node)
        if not seqs:
            return None
        i = bisect.bisect_right(seqs, seq)
        if i == 0:
            return None
        return self._clocks[node][i - 1]


class HBGraph:
    """The happens-before structure of one traced run."""

    def __init__(self, events: Iterable[TraceEvent]):
        self.events = events = list(events)
        #: category -> positions of its rows in ``events``
        self._index: Dict[str, List[int]] = {}
        by_category = self._index
        for i, ev in enumerate(events):
            at = by_category.get(ev[1])
            if at is None:
                by_category[ev[1]] = [i]
            else:
                at.append(i)
        self.clocks = ClockHistory()
        #: (node, index) -> IntervalInfo
        self.intervals: Dict[Tuple[int, int], IntervalInfo] = {}
        #: page gid -> [IntervalInfo] in trace order
        self._writes: Dict[int, List[IntervalInfo]] = {}
        for ev in self.rows("interval.close", "clock.advance"):
            _, category, f, seq = ev
            if category == "interval.close":
                node = f["node"]
                index = f["index"]
                pages = tuple(f.get("written", ()))
                info = IntervalInfo(node, index, pages, ev)
                self.intervals[(node, index)] = info
                for gid in pages:
                    self._writes.setdefault(gid, []).append(info)
                clock = f.get("clock")
                if clock is not None:
                    self.clocks.add(node, seq, tuple(clock))
            else:
                self.clocks.add(f["node"], seq, tuple(f["clock"]))

    # ------------------------------------------------------------- queries

    def rows(self, *categories: str) -> List[TraceEvent]:
        """The rows of ``categories``, in trace order.

        A name ending in ``.*`` stands for its whole family:
        ``rows("nilock.*")`` is every ``nilock.<op>`` row.  Rows of
        several categories are merged by their position in the trace,
        not concatenated.
        """
        index = self._index
        names: List[str] = []
        for category in categories:
            if category.endswith(".*"):
                prefix = category[:-1]
                names.extend(n for n in index if n.startswith(prefix))
            elif category in index:
                names.append(category)
        if len(names) == 1:
            at = index[names[0]]
        else:
            at = sorted(chain.from_iterable(index[n] for n in names))
        return list(map(self.events.__getitem__, at))

    def writes_to(self, gid: int) -> List[IntervalInfo]:
        """Closed intervals that dirtied page ``gid``, in trace order."""
        return self._writes.get(gid, [])

    def clock_of(self, node: int, seq: int) -> Optional[Tuple[int, ...]]:
        """Node ``node``'s vector clock as of trace point ``seq``."""
        return self.clocks.clock_at(node, seq)

    def happens_before(self, writer: int, index: int,
                       node: int, seq: int) -> bool:
        """True iff interval ``(writer, index)`` is ordered before the
        execution point of ``node`` at trace sequence ``seq``.

        This is the release->acquire chain test: the interval is
        visible iff some chain of releases and acquires carried its
        write notice into ``node``'s clock by then.
        """
        clock = self.clocks.clock_at(node, seq)
        if clock is None or writer >= len(clock):
            return False
        return clock[writer] >= index
