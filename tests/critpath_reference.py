"""The sort-based critical-path index: the streaming extractor's oracle.

:func:`reference_critical_path` is the extractor as it stood before
it indexed rows in one streaming sweep: it needs the whole row list
(the walk bound is ``len(events)``), appends coverage marks per track
and sorts them, and takes the innermost open span as the ``max`` over
the open set at every mark.  It is slower and holds every row, but it
makes no assumption about row order, so the tests assert that
:func:`repro.analysis.extract_critical_path` returns the same path.
"""

import bisect
import math
from operator import itemgetter
from typing import Dict, List, Sequence, Tuple

from repro.analysis import CriticalPath, PathStep
from repro.sim.trace import TraceEvent

#: sort key of the ``(key, ...)`` tuples below: their ``(t, seq)`` key.
_first = itemgetter(0)


class _Trace:
    """Span records indexed for the backward walk."""

    def __init__(self, events: Sequence[TraceEvent]):
        #: fid -> (key, t, track, kind, bucket)
        self.flows: Dict[int, Tuple[Tuple[float, int], float, str,
                                    str, str]] = {}
        #: track -> sorted [(key, t, fid)] resume points (wakes and
        #: linked begins).
        self.resumes: Dict[str, List[Tuple[Tuple[float, int],
                                           float, int]]] = {}
        #: track -> [(key, +1/-1, sid, bucket, name)] coverage events.
        cover: Dict[str, List[Tuple[Tuple[float, int], int, int,
                                    str, str]]] = {}
        #: run spans: track -> (begin_key, begin_t); and ends.
        self.run_begin: Dict[str, Tuple[Tuple[float, int], float]] = {}
        run_end: Dict[str, Tuple[Tuple[float, int], float]] = {}
        sid_info: Dict[int, Tuple[str, str, str]] = {}  # track,bucket,name
        for t, category, f, seq in events:
            if category == "span.begin":
                key = (t, seq)
                sid, track = f["sid"], f["track"]
                bucket, name = f.get("bucket", "other"), f.get("name", "")
                sid_info[sid] = (track, bucket, name)
                cover.setdefault(track, []).append(
                    (key, 1, sid, bucket, name))
                link = f.get("link")
                if link is not None:
                    self.resumes.setdefault(track, []).append(
                        (key, t, link))
                if name == "run":
                    self.run_begin[track] = (key, t)
            elif category == "span.end":
                sid = f["sid"]
                info = sid_info.get(sid)
                if info is None:
                    continue
                track, bucket, name = info
                key = (t, seq)
                cover.setdefault(track, []).append(
                    (key, -1, sid, bucket, name))
                if name == "run":
                    run_end[track] = (key, t)
            elif category == "span.flow":
                self.flows[f["fid"]] = ((t, seq), t, f["track"],
                                        f.get("kind", "flow"),
                                        f.get("bucket", "other"))
            elif category == "span.wake":
                self.resumes.setdefault(f["track"], []).append(
                    ((t, seq), t, f["fid"]))
        for lst in self.resumes.values():
            lst.sort(key=_first)
        self.resume_keys = {tr: [r[0] for r in lst]
                            for tr, lst in self.resumes.items()}
        #: run spans that both began and ended, as (end_key, end_t, track)
        self.runs = [(k, t, tr) for tr, (k, t) in run_end.items()
                     if tr in self.run_begin]
        #: track -> [(k0, k1, bucket, name)] innermost-span coverage.
        self.cover = {tr: self._pieces(evs)
                      for tr, evs in cover.items()}
        self.cover_keys = {tr: [p[0] for p in pieces]
                           for tr, pieces in self.cover.items()}

    @staticmethod
    def _pieces(evs):
        """Sweep begin/end events into innermost-span coverage pieces."""
        evs = sorted(evs, key=_first)
        open_spans: Dict[int, Tuple[Tuple[float, int], str, str]] = {}
        pieces = []
        prev_key = None
        for key, delta, sid, bucket, name in evs:
            if prev_key is not None and open_spans and prev_key < key:
                _, b, n = max(open_spans.values())
                pieces.append((prev_key, key, b, n))
            if delta > 0:
                open_spans[sid] = (key, bucket, name)
            else:
                open_spans.pop(sid, None)
            prev_key = key
        return pieces

    def latest_resume(self, track: str, key):
        """Latest resume point on ``track`` strictly before ``key``."""
        keys = self.resume_keys.get(track)
        if not keys:
            return None
        i = bisect.bisect_left(keys, key)
        return self.resumes[track][i - 1] if i else None

    def attribute(self, track: str, k0, k1) -> Tuple[Dict[str, float], str]:
        """Bucket attribution of [k0, k1) on ``track`` by innermost
        span coverage; uncovered time goes to ``other``.  Also returns
        the name of the longest covering span (for display)."""
        pieces = self.cover.get(track, [])
        keys = self.cover_keys.get(track, [])
        out: Dict[str, float] = {}
        longest, label = 0.0, ""
        i = max(bisect.bisect_right(keys, k0) - 1, 0)
        covered = 0.0
        for p0, p1, bucket, name in pieces[i:]:
            if p0 >= k1:
                break
            lo = max(p0[0], k0[0])
            hi = min(p1[0], k1[0])
            if hi <= lo:
                continue
            out[bucket] = out.get(bucket, 0.0) + (hi - lo)
            covered += hi - lo
            if hi - lo > longest:
                longest, label = hi - lo, name
        gap = (k1[0] - k0[0]) - covered
        if gap > 0.0:
            out["other"] = out.get("other", 0.0) + gap
        return out, label


def reference_critical_path(events: Sequence[TraceEvent]) -> CriticalPath:
    """The critical path of ``events``, by the sort-based index.

    Raises :class:`ValueError` when the trace carries no completed
    ``run`` spans (the run was not executed with ``spans=True``).
    """
    tr = _Trace(events)
    if not tr.runs:
        raise ValueError(
            "no completed 'run' spans in trace: record the run with "
            "spans=True (repro.runtime.run_svm) to extract a critical "
            "path")
    start_t = min(t for _, t in tr.run_begin.values())
    end_key, end_t, track = max(tr.runs)
    cursor_key, cursor_t = end_key, end_t

    steps: List[PathStep] = []
    complete = False
    terminal_track = track
    terminal_t = cursor_t
    # Each iteration strictly decreases cursor_key; the event list is
    # finite, so this bound is never hit on a well-formed trace.
    for _ in range(len(events) + 1):
        floor = tr.run_begin.get(track)
        rp = tr.latest_resume(track, cursor_key)
        if floor is not None and (rp is None or rp[0] <= floor[0]):
            buckets, label = tr.attribute(track, floor[0], cursor_key)
            steps.append(PathStep("seg", track, floor[1], cursor_t,
                                  buckets, label))
            complete = True
            terminal_track, terminal_t = track, floor[1]
            break
        if rp is None:
            terminal_track, terminal_t = track, cursor_t
            break
        rkey, rt, fid = rp
        buckets, label = tr.attribute(track, rkey, cursor_key)
        steps.append(PathStep("seg", track, rt, cursor_t, buckets, label))
        flow = tr.flows.get(fid)
        if flow is None:
            terminal_track, terminal_t = track, rt
            break
        fkey, ft, ftrack, fkind, fbucket = flow
        steps.append(PathStep("edge", ftrack, ft, rt,
                              {fbucket: rt - ft}, fkind, to_track=track))
        track, cursor_key, cursor_t = ftrack, fkey, ft

    steps.reverse()
    skew = terminal_t - start_t if complete else 0.0
    totals: Dict[str, float] = {}
    for s in steps:
        for b, us in s.buckets.items():
            totals[b] = totals.get(b, 0.0) + us
    if skew != 0.0:
        totals["skew"] = totals.get("skew", 0.0) + skew
    total = math.fsum(s.dur_us for s in steps) + skew
    return CriticalPath(steps=steps, total_us=total,
                        wall_us=end_t - start_t, start_skew_us=skew,
                        terminal_track=terminal_track,
                        complete=complete, buckets=totals)
