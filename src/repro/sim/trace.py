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
    # count() matches one exact category; filter() takes a dotted
    # family:
    assert tracer.count("fetch.retry") == 0
    assert len(tracer.filter("fetch")) >= tracer.count("fetch")

``tracer.append(t, category, fields)`` records a field dict the caller
hands over; ``record(t, category, **fields)`` is the keyword form of
it.  Instrumented components that build their dict anyway (the span
tracer, the ``_trace`` helpers) call ``append``, so no record re-packs
its fields.

A tracer keeps every row it admits (a long run is bounded by choosing
``categories``, not by dropping rows).  Storage is **columnar**: an
admitted record appends a float timestamp to an ``array('d')``, an
interned category id to an ``array('H')`` and the field dict to a
parallel list — no :class:`TraceEvent` row, no per-record counter
update.  Sequence numbers are implicit (``seq = index + 1``),
per-category counts are folded lazily from the id column, and
:class:`TraceEvent` rows (immutable ``(t, category, fields, seq)``
tuples) are materialized only on query, so ``to_jsonl()`` (and
everything the sanitizer/critpath readers see) is byte-identical to a
one-row-per-record sink; the tests keep such a sink as the oracle and
compare the two bytewise on a full ladder cell.  ``iter(tracer)``
yields the rows once, in record order, without building the list
``events`` returns, so a reader that folds the stream as it goes never
holds every row at once.
"""

from __future__ import annotations

from array import array
from collections import Counter, namedtuple
from itertools import count, repeat
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

__all__ = ["TraceEvent", "Tracer"]

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
    """Filterable event recorder (columnar storage) that keeps every
    row it admits.

    ``categories`` filters at record time: an entry admits its exact
    category (``"fetch.retry"``) and, as a family, every category
    whose prefix before the first dot it names (``"fetch"`` admits
    ``"fetch.retry"``); None records everything.
    """

    def __init__(self, categories: Optional[Iterable[str]] = None):
        if isinstance(categories, str):
            # set("fetch") would admit the prefixes f, e, t, c and h.
            raise ValueError(f"categories must be None or an iterable of "
                             f"category names, not the string "
                             f"{categories!r}")
        self.categories = set(categories) if categories is not None \
            else None
        #: category -> admission decision memo; ``wants`` is on the
        #: per-event hot path and the prefix split is pure overhead
        #: after the first sighting of a category.
        self._admit: dict = {}
        #: interned category table: id -> name and name -> id.  Ids are
        #: append-ordered (they never leak into exported output, only
        #: into the id column).
        self._cats: List[str] = []
        self._cid: Dict[str, int] = {}
        self._ts: array = array("d")         # timestamps
        self._cids: array = array("H")       # category ids
        self._fds: List[Dict[str, Any]] = []  # field dicts
        self._counts_memo: Optional[Tuple[int, Counter]] = None

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
        self._ts.append(t)
        self._cids.append(cid)
        self._fds.append(fields)

    # ------------------------------------------------- columnar internals

    def _rows(self) -> Iterator[TraceEvent]:
        """The records as :class:`TraceEvent` rows, in order: the
        columns zipped with the implicit sequence numbers, so a row
        costs one ``tuple.__new__`` and no Python frame."""
        return map(_new_row, repeat(TraceEvent), zip(
            self._ts, map(self._cats.__getitem__, self._cids), self._fds,
            count(1)))

    def _total_counts(self) -> Counter:
        n = len(self._fds)
        memo = self._counts_memo
        if memo is not None and memo[0] == n:
            return memo[1]
        cats = self._cats
        total = Counter({cats[cid]: k
                         for cid, k in Counter(self._cids).items()})
        self._counts_memo = (n, total)
        return total

    # -------------------------------------------------------------- query

    def __iter__(self) -> Iterator[TraceEvent]:
        """The records, once, as :class:`TraceEvent` rows."""
        return self._rows()

    @property
    def events(self) -> List[TraceEvent]:
        """Every record, lazily materialized as :class:`TraceEvent`."""
        return list(self._rows())

    def filter(self, category: str) -> List[TraceEvent]:
        """Events whose category equals or starts with ``category``."""
        prefix = category + "."
        return [e for e in self._rows()
                if e[1] == category or e[1].startswith(prefix)]

    def count(self, category: str) -> int:
        """Recorded events of an *exact* category.

        ``count("fetch")`` does **not** include ``fetch.retry``;
        ``len(filter("fetch"))`` counts the whole family.
        """
        return self._total_counts()[category]

    def counts(self) -> Dict[str, int]:
        return dict(self._total_counts())

    def to_text(self, limit: Optional[int] = None) -> str:
        events = self.events
        if limit is not None:
            events = events[-limit:]
        return "\n".join(str(e) for e in events)

    # ------------------------------------------------------------- export

    def to_jsonl(self) -> str:
        """All events as canonical JSON lines.

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

