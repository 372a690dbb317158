"""Structured event tracing for simulations.

A :class:`Tracer` collects timestamped, categorized events from any
instrumented component (the SVM protocol emits faults, fetches,
flushes, lock and barrier events).  Useful to debug a protocol
schedule, to build timelines, or to assert fine-grained behaviour in
tests without threading counters everywhere.

    tracer = Tracer(categories={"fetch", "lock"})
    proto = HLRCProtocol(machine, GENIMA, tracer=tracer)
    ...
    print(tracer.to_text(limit=50))
    # count() matches one exact category; count_prefix() aggregates a
    # dotted family the way filter() does:
    assert tracer.count("fetch.retry") == 0
    assert tracer.count_prefix("fetch") == len(tracer.filter("fetch"))

``tracer.append(t, category, fields)`` records a field dict the caller
hands over; ``record(t, category, **fields)`` is the keyword form of
it.  Instrumented components that build their dict anyway (the span
tracer, the ``_trace`` helpers) call ``append``, so no record re-packs
its fields.

Storage is **columnar** by default: an admitted record appends a float
timestamp to an ``array('d')``, an interned category id to an
``array('H')`` and the field dict to a parallel list — no
:class:`TraceEvent` row, no per-record counter update.  Sequence
numbers are implicit (``seq = dropped + index + 1``), per-category
counts are folded lazily from the id columns, and :class:`TraceEvent`
rows (immutable ``(t, category, fields, seq)`` tuples) are materialized
only on query, so ``to_jsonl()`` (and everything the sanitizer/critpath
readers see) is byte-identical to a one-row-per-record sink; the tests
keep such a sink as the oracle and compare the two bytewise on a full
ladder cell.  ``iter(tracer)`` yields the retained rows once, in record
order, without building the list ``events`` returns, so a reader that
folds the stream as it goes never holds every row at once.

``flush()`` seals the mutable tail into a frozen segment; the sampler
calls it once per time slice so a long traced run grows a list of
immutable column blocks instead of one ever-reallocating array.
"""

from __future__ import annotations

from array import array
from collections import Counter, namedtuple
from itertools import chain, count, repeat
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

__all__ = ["TraceEvent", "Tracer"]

#: one sealed column block: (timestamps, category ids, field dicts)
_Segment = Tuple[array, array, List[Dict[str, Any]]]

#: ``_new_row(TraceEvent, (t, category, fields, seq))`` builds one row
#: without running ``TraceEvent.__new__``'s defaulting.
_new_row = tuple.__new__


class TraceEvent(namedtuple("_TraceRow", "t category fields seq")):
    """One recorded occurrence: the row ``(t, category, fields, seq)``.

    ``seq`` is the tracer-assigned record order: a monotonically
    increasing sequence number that gives events a stable total order
    even when several fire at the same simulated instant (the engine
    dispatches same-time events in scheduling order, so record order
    *is* causal order within an instant).

    An immutable tuple, so readers may unpack it
    (``for t, category, fields, seq in events``) instead of paying an
    attribute lookup per field; the tracer builds rows with one
    ``tuple.__new__`` each.  ``fields`` defaults to a fresh dict.
    """

    __slots__ = ()

    def __new__(cls, t: float, category: str,
                fields: Optional[Dict[str, Any]] = None,
                seq: int = 0) -> "TraceEvent":
        return _new_row(cls, (t, category,
                              {} if fields is None else fields, seq))

    def __str__(self) -> str:
        t, category, fields, seq = self
        parts = " ".join(f"{k}={v}" for k, v in fields.items())
        return f"[{t:12.2f} #{seq:06d}] {category:20s} {parts}"

    def to_json(self) -> str:
        """One-line canonical JSON (stable key order) for this event."""
        import json
        t, category, fields, seq = self
        return json.dumps(
            {"seq": seq, "t": t, "category": category, "fields": fields},
            sort_keys=True, separators=(",", ":"))


class Tracer:
    """Bounded, filterable event recorder (columnar storage).

    ``categories`` filters at record time: an entry admits its exact
    category (``"fetch.retry"``) and, as a family, every category
    whose prefix before the first dot it names (``"fetch"`` admits
    ``"fetch.retry"``); None records everything.  ``capacity`` bounds
    memory (oldest events drop); counts are kept for all admitted
    events regardless.
    """

    def __init__(self, categories: Optional[Iterable[str]] = None,
                 capacity: Optional[int] = 100_000):
        if isinstance(categories, str):
            # set("fetch") would admit the prefixes f, e, t, c and h.
            raise ValueError(f"categories must be None or an iterable of "
                             f"category names, not the string "
                             f"{categories!r}")
        if capacity is not None and (not isinstance(capacity, int)
                                     or isinstance(capacity, bool)
                                     or capacity < 0):
            raise ValueError(f"capacity must be None or an integer >= 0, "
                             f"got {capacity!r}")
        self.categories = set(categories) if categories is not None \
            else None
        self.capacity = capacity
        #: category -> admission decision memo; ``wants`` is on the
        #: per-event hot path and the prefix split is pure overhead
        #: after the first sighting of a category.  Depends only on
        #: ``categories``, so it survives :meth:`clear`.
        self._admit: dict = {}
        #: interned category table: id -> name and name -> id.  Ids are
        #: append-ordered and survive :meth:`clear` (they never leak
        #: into exported output, only into the id columns).
        self._cats: List[str] = []
        self._cid: Dict[str, int] = {}
        self._segs: List[_Segment] = []      # sealed column blocks
        self._ts: array = array("d")         # active timestamps
        self._cids: array = array("H")       # active category ids
        self._fds: List[Dict[str, Any]] = []  # active field dicts
        self._seq = 0                        # total admitted ever
        self._dropped = 0                    # admitted but evicted
        self._dropped_counts: Counter = Counter()
        self._counts_memo: Optional[Tuple[int, Counter]] = None
        # Eviction is amortized: the record path only checks the active
        # block's length against this threshold; a query trims exactly.
        self._trim_at = (max(2 * capacity, 1)
                         if capacity is not None else float("inf"))

    # ------------------------------------------------------------- record

    def wants(self, category: str) -> bool:
        categories = self.categories
        if categories is None:
            return True
        admit = self._admit.get(category)
        if admit is None:
            admit = (category in categories
                     or category.split(".", 1)[0] in categories)
            self._admit[category] = admit
        return admit

    def record(self, t: float, category: str, **fields) -> None:
        self.append(t, category, fields)

    #: hot-path alias: instrumented components may hold a bound
    #: ``tracer.emit`` reference; it shares ``record``'s fast path.
    emit = record

    def append(self, t: float, category: str,
               fields: Dict[str, Any]) -> None:
        """Record one event whose field dict the caller hands over.

        The tracer keeps ``fields`` itself, so the caller must not
        mutate it afterwards; :meth:`record` is this with the keyword
        arguments as the dict.
        """
        # Fast path: a no-sink tracer (``categories=()``) or a filtered
        # category returns before touching any storage — the memo makes
        # the rejection one dict probe.  An admitted record is three
        # appends and an intern probe; counts and TraceEvent rows are
        # deferred to query time.
        if self.categories is not None:
            admit = self._admit.get(category)
            if admit is None:
                admit = self.wants(category)
            if not admit:
                return
        cid = self._cid.get(category)
        if cid is None:
            cid = len(self._cats)
            self._cats.append(category)
            self._cid[category] = cid
        self._seq += 1
        self._ts.append(t)
        self._cids.append(cid)
        fds = self._fds
        fds.append(fields)
        if len(fds) >= self._trim_at:
            self._seal()
            self._trim()

    # ------------------------------------------------- columnar internals

    def _seal(self) -> None:
        """Freeze the active block into the segment list."""
        if self._fds:
            self._segs.append((self._ts, self._cids, self._fds))
            self._ts = array("d")
            self._cids = array("H")
            self._fds = []

    def _retained(self) -> int:
        return (sum(len(s[2]) for s in self._segs) + len(self._fds))

    def _trim(self) -> None:
        """Evict oldest records until ``capacity`` holds.

        Matches ``deque(maxlen=capacity)`` semantics exactly: the
        retained window is always the last ``capacity`` admitted
        records.  Evicted categories fold into ``_dropped_counts`` so
        :meth:`count` keeps covering every admitted record.
        """
        cap = self.capacity
        if cap is None:
            return
        excess = self._retained() - cap
        if excess <= 0:
            return
        self._seal()
        segs = self._segs
        cats = self._cats
        folded: Counter = Counter()
        while excess > 0 and segs:
            ts, cids, fds = segs[0]
            n = len(fds)
            if n <= excess:
                folded.update(cids)
                segs.pop(0)
                excess -= n
                self._dropped += n
            else:
                folded.update(cids[:excess])
                segs[0] = (ts[excess:], cids[excess:], fds[excess:])
                self._dropped += excess
                excess = 0
        for cid, n in folded.items():
            self._dropped_counts[cats[cid]] += n
        self._counts_memo = None

    def flush(self) -> None:
        """Seal the active block (called by the sampler per slice)."""
        self._trim()
        self._seal()

    def _rows(self) -> Iterator[TraceEvent]:
        """The retained records as :class:`TraceEvent` rows, in order.

        Each block zips its columns with the implicit sequence numbers,
        so a row costs one ``tuple.__new__`` and no Python frame.
        """
        self._trim()
        name = self._cats.__getitem__
        blocks = []
        seq = self._dropped + 1
        for ts, cids, fds in (*self._segs, (self._ts, self._cids, self._fds)):
            blocks.append(map(_new_row, repeat(TraceEvent), zip(
                ts, map(name, cids), fds, count(seq))))
            seq += len(fds)
        return chain.from_iterable(blocks)

    def _total_counts(self) -> Counter:
        memo = self._counts_memo
        if memo is not None and memo[0] == self._seq:
            return memo[1]
        by_cid: Counter = Counter()
        for _ts, cids, _fds in self._segs:
            by_cid.update(cids)
        by_cid.update(self._cids)
        cats = self._cats
        total: Counter = Counter()
        for cid, n in by_cid.items():
            total[cats[cid]] = n
        total.update(self._dropped_counts)
        self._counts_memo = (self._seq, total)
        return total

    # -------------------------------------------------------------- query

    def __iter__(self) -> Iterator[TraceEvent]:
        """The retained records, once, as :class:`TraceEvent` rows."""
        return self._rows()

    @property
    def events(self) -> List[TraceEvent]:
        """Retained records, lazily materialized as :class:`TraceEvent`."""
        return list(self._rows())

    def filter(self, category: str) -> List[TraceEvent]:
        """Events whose category equals or starts with ``category``."""
        prefix = category + "."
        return [e for e in self._rows()
                if e[1] == category or e[1].startswith(prefix)]

    def count(self, category: str) -> int:
        """Total admitted events for an *exact* category.

        ``count("fetch")`` does **not** include ``fetch.retry``; use
        :meth:`count_prefix` for family totals.
        """
        return self._total_counts()[category]

    def count_prefix(self, category: str) -> int:
        """Total admitted events whose category equals ``category`` or
        is a dot-qualified refinement of it — the same match rule as
        :meth:`filter`, but counting all admitted events (including
        ones a bounded ``capacity`` has already dropped)."""
        counts = self._total_counts()
        prefix = category + "."
        return counts[category] + sum(
            n for c, n in counts.items() if c.startswith(prefix))

    def counts(self) -> Dict[str, int]:
        return dict(self._total_counts())

    def between(self, t0: float, t1: float) -> List[TraceEvent]:
        return [e for e in self._rows() if t0 <= e[0] <= t1]

    def to_text(self, limit: Optional[int] = None) -> str:
        events = self.events
        if limit is not None:
            events = events[-limit:]
        return "\n".join(str(e) for e in events)

    def clear(self) -> None:
        self._segs = []
        self._ts = array("d")
        self._cids = array("H")
        self._fds = []
        self._seq = 0
        self._dropped = 0
        self._dropped_counts = Counter()
        self._counts_memo = None

    # ------------------------------------------------------------- export

    def to_jsonl(self) -> str:
        """All retained events as canonical JSON lines.

        Two runs of the same deterministic simulation must produce
        byte-identical streams; the determinism regression tests (and
        ``repro check``) rely on this.  Serialized straight from the
        columns — same bytes as :meth:`TraceEvent.to_json` per row.
        """
        import json
        dumps = json.dumps
        return "\n".join(
            dumps({"seq": s, "t": t, "category": c, "fields": f},
                  sort_keys=True, separators=(",", ":"))
            for t, c, f, s in self._rows())

    def to_chrome_trace(self) -> List[dict]:
        """Events in Chrome tracing (``chrome://tracing`` / Perfetto)
        JSON format.

        ``span.begin``/``span.end`` records (see
        :mod:`repro.sim.spans`) become duration events (``ph: B/E``)
        and ``span.flow``/``span.wake`` become flow events
        (``ph: s/f``), so a spanned run renders as nested slices with
        causal arrows.  Every other category stays an instant event
        (``ph: i``) on its rank's row.  Rows: ranks first (tid ==
        rank, shared with ``r<k>`` span tracks), then the remaining
        span tracks, then one dedicated row for instant events that
        carry no ``rank`` field (previously these collided with rank
        0).  Chrome metadata events (``ph: M``) label the process and
        every row."""
        import re
        span_cats = {"span.begin", "span.end", "span.flow", "span.wake"}
        events = self.events

        # -- pre-pass: discover rows and id->name maps
        ranks: set = set()
        tracks: set = set()
        unranked = False
        flow_kind: Dict[Any, str] = {}
        span_name: Dict[Any, str] = {}
        for e in events:
            if e.category in span_cats:
                track = e.fields.get("track")
                if isinstance(track, str):
                    tracks.add(track)
                if e.category == "span.flow":
                    flow_kind[e.fields.get("fid")] = \
                        e.fields.get("kind", "flow")
                elif e.category == "span.begin":
                    span_name[e.fields.get("sid")] = \
                        e.fields.get("name", "span")
            else:
                rank = e.fields.get("rank")
                if isinstance(rank, int) and not isinstance(rank, bool):
                    ranks.add(rank)
                else:
                    unranked = True

        order = {"r": 0, "h": 1, "ni": 2, "b": 3}

        def track_key(tr: str):
            m = re.fullmatch(r"([a-z]+)(\d+)", tr)
            if m:
                return (order.get(m.group(1), 4), m.group(1),
                        int(m.group(2)))
            return (5, tr, 0)

        for tr in tracks:                  # r<k> tracks share rank rows
            m = re.fullmatch(r"r(\d+)", tr)
            if m:
                ranks.add(int(m.group(1)))
        tid_of: Dict[Any, int] = {}
        next_tid = (max(ranks) + 1) if ranks else 0
        for tr in sorted(tracks, key=track_key):
            m = re.fullmatch(r"r(\d+)", tr)
            if m:
                tid_of[tr] = int(m.group(1))
            else:
                tid_of[tr] = next_tid
                next_tid += 1
        shared_tid = next_tid              # rank-less instant events

        # -- metadata: label the process and every row
        out: List[dict] = [{"name": "process_name", "ph": "M", "pid": 1,
                            "args": {"name": "repro"}}]
        for r in sorted(ranks):
            out.append({"name": "thread_name", "ph": "M", "pid": 1,
                        "tid": r, "args": {"name": f"rank {r}"}})
        for tr in sorted(tracks, key=track_key):
            if re.fullmatch(r"r(\d+)", tr):
                continue                   # labeled as its rank above
            out.append({"name": "thread_name", "ph": "M", "pid": 1,
                        "tid": tid_of[tr], "args": {"name": tr}})
        if unranked:
            out.append({"name": "thread_name", "ph": "M", "pid": 1,
                        "tid": shared_tid, "args": {"name": "(events)"}})

        # -- the events themselves, in trace order
        for e in events:
            f = e.fields
            if e.category in span_cats:
                tid = tid_of.get(f.get("track"), shared_tid)
                if e.category == "span.begin":
                    out.append({"name": f.get("name", "span"), "ph": "B",
                                "ts": e.t, "pid": 1, "tid": tid,
                                "args": dict(f)})
                    link = f.get("link")
                    if link is not None:   # arrow into the new slice
                        out.append({"name": flow_kind.get(link, "flow"),
                                    "ph": "f", "bp": "e", "id": link,
                                    "cat": "flow", "ts": e.t, "pid": 1,
                                    "tid": tid})
                elif e.category == "span.end":
                    out.append({"name": span_name.get(f.get("sid"),
                                                      "span"),
                                "ph": "E", "ts": e.t, "pid": 1,
                                "tid": tid, "args": dict(f)})
                elif e.category == "span.flow":
                    out.append({"name": f.get("kind", "flow"), "ph": "s",
                                "id": f.get("fid"), "cat": "flow",
                                "ts": e.t, "pid": 1, "tid": tid,
                                "args": dict(f)})
                else:                      # span.wake
                    out.append({"name": flow_kind.get(f.get("fid"),
                                                      "flow"),
                                "ph": "f", "bp": "e",
                                "id": f.get("fid"), "cat": "flow",
                                "ts": e.t, "pid": 1, "tid": tid,
                                "args": dict(f)})
            else:
                rank = f.get("rank")
                has_rank = (isinstance(rank, int)
                            and not isinstance(rank, bool))
                out.append({"name": e.category, "ph": "i", "ts": e.t,
                            "pid": 1,
                            "tid": rank if has_rank else shared_tid,
                            "s": "t", "args": dict(f)})
        return out

