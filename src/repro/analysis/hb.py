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

The graph reads the trace once and keeps only the rows of the
categories it is told its readers read (``reads``: exact names, or
``family.*`` for a whole family), plus its own.  :meth:`HBGraph.rows`
hands each sanitizer check just those categories, merged back into
trace order, and raises for a category nobody declared, so a check
cannot silently read an empty list.

The sanitizer (:mod:`repro.analysis.sanitizer`) also asks two
questions of this module:

* which closed intervals wrote a given page (``writes_to``), and
* was interval ``(w, i)`` ordered before trace point ``seq`` of node
  ``n`` (``happens_before``).
"""

from __future__ import annotations

import bisect
import copy
import heapq
from array import array
from itertools import chain, repeat
from operator import itemgetter
from typing import (Any, Dict, FrozenSet, Iterable, Iterator, List,
                    Optional, Set, Tuple)

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


#: a row's ``seq``: the merge key of :meth:`HBGraph.rows`.
_seq = itemgetter(3)
#: ``_new_row(TraceEvent, (t, category, fields, seq))`` builds one row.
_new_row: Any = tuple.__new__
#: one category's kept rows: times, seqs and field dicts.
_Columns = Tuple[array, array, List[dict]]


def _split(reads: Iterable[str]) -> Tuple[FrozenSet[str], FrozenSet[str]]:
    """Declared reads as (exact names, families)."""
    exact: Set[str] = set()
    families: Set[str] = set()
    for name in reads:
        if name.endswith(".*"):
            families.add(name[:-2])
        else:
            exact.add(name)
    return frozenset(exact), frozenset(families)


class HBGraph:
    """The happens-before structure of one traced run.

    ``events`` is any iterable of rows in trace order, read once; the
    graph keeps the rows of ``reads`` and of its own :attr:`reads`.
    """

    #: what the graph itself reads: closed intervals and clock
    #: snapshots, for :meth:`writes_to` and the clock history.
    reads = ("interval.close", "clock.advance")

    def __init__(self, events: Iterable[TraceEvent],
                 reads: Iterable[str] = ()):
        self._exact, self._families = _split(
            chain(reads, HBGraph.reads))
        #: category -> its kept rows as columns (times, seqs, field
        #: dicts), in trace order; :meth:`rows` rebuilds the rows.
        self._rows: Dict[str, _Columns] = {}
        by_category = self._rows
        keep: Dict[str, bool] = {}
        declares = self._declares
        for t, category, fields, seq in events:
            kept = keep.get(category)
            if kept is None:
                kept = keep[category] = declares(category)
            if kept:
                columns = by_category.get(category)
                if columns is None:
                    columns = by_category[category] = (
                        array("d"), array("q"), [])
                columns[0].append(t)
                columns[1].append(seq)
                columns[2].append(fields)
        self.clocks = ClockHistory()
        #: (node, index) -> IntervalInfo
        self.intervals: Dict[Tuple[int, int], IntervalInfo] = {}
        #: page gid -> [IntervalInfo] in trace order
        self._writes: Dict[int, List[IntervalInfo]] = {}
        for ev in self.rows(*HBGraph.reads):
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

    def _declares(self, category: str) -> bool:
        return (category in self._exact
                or category.split(".", 1)[0] in self._families)

    def restricted(self, reads: Iterable[str]) -> "HBGraph":
        """This graph, answering :meth:`rows` for ``reads`` only: the
        view one sanitizer check gets."""
        view = copy.copy(self)
        view._exact, view._families = _split(reads)
        return view

    # ------------------------------------------------------------- queries

    def rows(self, *categories: str) -> Iterator[TraceEvent]:
        """The rows of ``categories``, once, in trace order.

        A name ending in ``.*`` stands for its whole family:
        ``rows("nilock.*")`` is every ``nilock.<op>`` row.  Rows of
        several categories are merged by their ``seq``, not
        concatenated.  Each row is built as it is yielded, so a reader
        holds only the rows it keeps.  A category outside the declared
        reads raises :class:`ValueError` at the call.
        """
        stored = self._rows
        names: List[str] = []
        for category in categories:
            if category.endswith(".*"):
                declared = category[:-2] in self._families
                prefix = category[:-1]
                names.extend(n for n in stored if n.startswith(prefix))
            else:
                declared = self._declares(category)
                if category in stored:
                    names.append(category)
            if not declared:
                raise ValueError(
                    f"category {category!r} is not among the declared "
                    f"reads: add it to the reading check's reads")
        streams = [map(_new_row, repeat(TraceEvent),
                       zip(stored[n][0], repeat(n), stored[n][2],
                           stored[n][1]))
                   for n in names]
        if len(streams) == 1:
            return streams[0]
        return heapq.merge(*streams, key=_seq)

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
