"""Critical-path extraction from causal span traces.

Operates offline on the ``span.*`` records a spanned run leaves in its
trace (:mod:`repro.sim.spans`), read once in trace order: the index
the walk needs is built as the rows stream by, so the caller can hand
over ``iter(tracer)`` instead of a row list.  The extractor walks
*backwards* from the end of the last-finishing rank's ``run`` span to
the start of the timed section, alternating two moves:

* **local segment** — within one track (a serial execution lane),
  everything between the latest *resume point* before the cursor and
  the cursor itself executed on that lane; its time is attributed to
  Figure-3 buckets by the innermost span covering each instant.
* **flow edge** — a resume point names the flow that made the lane
  runnable (a ``span.wake``, or a ``span.begin`` whose ``link`` names
  the dispatching flow).  The walk jumps to the flow's source point on
  the sending track; the edge's width (send to delivery) is wire and
  queueing time, charged to the flow's bucket.

Both moves strictly decrease the ``(t, seq)`` cursor, so the walk
terminates; because each segment and edge spans exactly the gap between
consecutive cursors, the step durations telescope: their sum equals the
time from the terminal rank's ``run`` begin to the final ``run`` end
*exactly*.  The remaining gap — ranks leave the initialization barrier
at slightly different instants, and the chain bottoms out at one of
them — is reported as ``start_skew_us`` and charged to a synthetic
``skew`` bucket, so ``total_us`` must reconcile with the wall time
(last end minus first begin) to within ``TIME_TOLERANCE_US``.  That
reconciliation is the extractor's self-check: the ``critical-path``
sanitizer pass and ``repro critpath`` both fail on any residual.

Caveat: host-handler tracks (``h<node>``) are shared by interleaved
activations, so "latest resume point" can occasionally attribute a
segment to a concurrent activation's waker.  The telescoping identity
is unaffected — only bucket attribution blurs, never the total.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from ..sim import BUCKETS, TIME_TOLERANCE_US
from ..sim.trace import TraceEvent

__all__ = ["CriticalPath", "PathStep", "extract_critical_path",
           "render_path", "render_ladder_diff", "bucket_shares",
           "CRITPATH_SCHEMA"]

#: critpath JSON schema version (bump on breaking change).
CRITPATH_SCHEMA = 1


@dataclass
class PathStep:
    """One hop of the critical path (in start-to-end order)."""

    kind: str                 #: "seg" (on-track execution) or "edge"
    track: str                #: executing track / flow source track
    t0: float
    t1: float
    #: bucket -> microseconds for this step (segments may split across
    #: buckets; edges charge everything to the flow's bucket).
    buckets: Dict[str, float] = field(default_factory=dict)
    #: flow kind for edges ("page_req", "lock_grant", ...), span name
    #: of the innermost covering span for segments (best effort).
    label: str = ""
    #: edge destination track ("" for segments).
    to_track: str = ""

    @property
    def dur_us(self) -> float:
        return self.t1 - self.t0

    def to_dict(self) -> dict:
        return {"kind": self.kind, "track": self.track,
                "t0": self.t0, "t1": self.t1, "label": self.label,
                "to_track": self.to_track, "buckets": dict(self.buckets)}

    @classmethod
    def from_dict(cls, data: dict) -> "PathStep":
        """Inverse of :meth:`to_dict` (used by the run-cache codec)."""
        return cls(kind=data["kind"], track=data["track"],
                   t0=data["t0"], t1=data["t1"],
                   buckets=dict(data.get("buckets", {})),
                   label=data.get("label", ""),
                   to_track=data.get("to_track", ""))


@dataclass
class CriticalPath:
    """The extracted longest causal chain of one spanned run."""

    steps: List[PathStep]          #: start-to-end order
    total_us: float                #: path length incl. start skew
    wall_us: float                 #: last run end - first run begin
    start_skew_us: float           #: terminal rank's begin - first begin
    terminal_track: str            #: track whose run begin ends the walk
    complete: bool                 #: walk reached a run begin
    buckets: Dict[str, float]      #: bucket -> us over the whole path

    @property
    def residual_us(self) -> float:
        return self.total_us - self.wall_us

    def ok(self) -> bool:
        return self.complete and abs(self.residual_us) <= TIME_TOLERANCE_US

    def to_dict(self) -> dict:
        return {"total_us": self.total_us, "wall_us": self.wall_us,
                "start_skew_us": self.start_skew_us,
                "residual_us": self.residual_us,
                "terminal_track": self.terminal_track,
                "complete": self.complete,
                "buckets": dict(self.buckets),
                "steps": [s.to_dict() for s in self.steps]}

    @classmethod
    def from_dict(cls, data: dict) -> "CriticalPath":
        """Inverse of :meth:`to_dict` (used by the run-cache codec);
        ``residual_us`` is derived, so it is not read back."""
        return cls(steps=[PathStep.from_dict(s)
                          for s in data.get("steps", [])],
                   total_us=data["total_us"],
                   wall_us=data["wall_us"],
                   start_skew_us=data["start_skew_us"],
                   terminal_track=data["terminal_track"],
                   complete=data["complete"],
                   buckets=dict(data.get("buckets", {})))


# -------------------------------------------------------------- parsing

#: a record's position in the trace: ``(t, seq)``.
_Key = Tuple[float, int]
#: one innermost-span coverage piece: ``(k0, k1, bucket, name)``.
_Piece = Tuple[_Key, _Key, str, str]


class _Cover:
    """One track's coverage sweep, fed begin/end marks in trace order.

    Between two consecutive marks the track's time belongs to its
    innermost open span: the last-begun one still open.  ``stack``
    holds begun spans in begin order and ``open`` maps each open sid to
    its begin key, so a closed (or re-begun) entry is skipped lazily
    when it reaches the top; a non-LIFO close costs nothing until then.
    """

    __slots__ = ("open", "stack", "prev", "pieces", "keys")

    def __init__(self) -> None:
        self.open: Dict[int, _Key] = {}
        self.stack: List[Tuple[_Key, int, str, str]] = []
        self.prev: Optional[_Key] = None
        self.pieces: List[_Piece] = []   #: in key order
        self.keys: List[_Key] = []       #: each piece's start key

    def mark(self, key: _Key) -> None:
        """Close the piece that ends at ``key`` (a begin or an end)."""
        prev = self.prev
        if self.open and prev is not None:
            stack, open_ = self.stack, self.open
            while open_.get(stack[-1][1]) != stack[-1][0]:
                stack.pop()
            _, _, bucket, name = stack[-1]
            self.pieces.append((prev, key, bucket, name))
            self.keys.append(prev)
        self.prev = key


class _Trace:
    """Span records indexed for the backward walk, built in one pass.

    Rows must arrive in trace order, as :class:`~repro.sim.Tracer` and
    :meth:`~repro.analysis.hb.HBGraph.rows` yield them: every index is
    then appended to in key order, so nothing is sorted or rebuilt
    afterwards.  ``rows`` counts every row read.
    """

    def __init__(self, events: Iterable[TraceEvent]):
        #: fid -> (key, t, track, kind, bucket)
        self.flows: Dict[int, Tuple[_Key, float, str, str, str]] = {}
        #: track -> resume points (wakes and linked begins), as
        #: [(key, t, fid)] and, for bisection, their keys.
        self.resumes: Dict[str, List[Tuple[_Key, float, int]]] = {}
        self.resume_keys: Dict[str, List[_Key]] = {}
        #: track -> innermost-span coverage sweep.
        self.cover: Dict[str, _Cover] = {}
        #: run spans: track -> (begin_key, begin_t); and ends.
        self.run_begin: Dict[str, Tuple[_Key, float]] = {}
        run_end: Dict[str, Tuple[_Key, float]] = {}
        #: sid -> (track, its sweep, span name)
        sid_info: Dict[int, Tuple[str, _Cover, str]] = {}
        cover = self.cover
        last: _Key = (-math.inf, 0)
        rows = 0
        for t, category, f, seq in events:
            rows += 1
            if not category.startswith("span."):
                continue
            key = (t, seq)
            if key <= last:
                raise ValueError(
                    f"span row seq {seq} at t={t} arrives out of "
                    f"(t, seq) order: pass the rows in trace order")
            last = key
            if category == "span.begin":
                sid, track = f["sid"], f["track"]
                name = f.get("name", "")
                sweep = cover.get(track)
                if sweep is None:
                    sweep = cover[track] = _Cover()
                sweep.mark(key)
                sweep.open[sid] = key
                sweep.stack.append((key, sid, f.get("bucket", "other"),
                                    name))
                sid_info[sid] = (track, sweep, name)
                link = f.get("link")
                if link is not None:
                    self._resume(track, key, t, link)
                if name == "run":
                    self.run_begin[track] = (key, t)
            elif category == "span.end":
                sid = f["sid"]
                info = sid_info.get(sid)
                if info is None:
                    continue
                track, sweep, name = info
                sweep.mark(key)
                sweep.open.pop(sid, None)
                if name == "run":
                    run_end[track] = (key, t)
            elif category == "span.flow":
                self.flows[f["fid"]] = (key, t, f["track"],
                                        f.get("kind", "flow"),
                                        f.get("bucket", "other"))
            elif category == "span.wake":
                self._resume(f["track"], key, t, f["fid"])
        self.rows = rows
        #: run spans that both began and ended, as (end_key, end_t, track)
        self.runs = [(k, t, tr) for tr, (k, t) in run_end.items()
                     if tr in self.run_begin]

    def _resume(self, track: str, key: _Key, t: float, fid: int) -> None:
        self.resumes.setdefault(track, []).append((key, t, fid))
        self.resume_keys.setdefault(track, []).append(key)

    def latest_resume(self, track: str,
                      key: _Key) -> Optional[Tuple[_Key, float, int]]:
        """Latest resume point on ``track`` strictly before ``key``."""
        keys = self.resume_keys.get(track)
        if not keys:
            return None
        i = bisect.bisect_left(keys, key)
        return self.resumes[track][i - 1] if i else None

    def attribute(self, track: str, k0: _Key,
                  k1: _Key) -> Tuple[Dict[str, float], str]:
        """Bucket attribution of [k0, k1) on ``track`` by innermost
        span coverage; uncovered time goes to ``other``.  Also returns
        the name of the longest covering span (for display)."""
        sweep = self.cover.get(track)
        pieces = sweep.pieces if sweep is not None else []
        keys = sweep.keys if sweep is not None else []
        out: Dict[str, float] = {}
        longest, label = 0.0, ""
        i = max(bisect.bisect_right(keys, k0) - 1, 0)
        covered = 0.0
        for j in range(i, len(pieces)):
            p0, p1, bucket, name = pieces[j]
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


# ------------------------------------------------------------ extraction


def extract_critical_path(events: Iterable[TraceEvent]) -> CriticalPath:
    """Extract the critical path from a spanned run's trace events.

    ``events`` is any iterable of rows in trace order (a list, a
    :class:`~repro.sim.Tracer` or ``iter(tracer)``); it is read once,
    and rows of other families are skipped.  Raises
    :class:`ValueError` when the trace carries no completed ``run``
    spans (the run was not executed with ``spans=True``) or when span
    rows arrive out of order.
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
    # Each iteration strictly decreases cursor_key; the trace is
    # finite, so this bound is never hit on a well-formed trace.
    for _ in range(tr.rows + 1):
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


def bucket_shares(path: CriticalPath) -> Dict[str, float]:
    """Bucket -> fraction of the path total (0 when the path is empty)."""
    if path.total_us <= 0.0:
        return {b: 0.0 for b in path.buckets}
    return {b: us / path.total_us for b, us in path.buckets.items()}


# ------------------------------------------------------------- rendering


def _bucket_names(paths) -> List[str]:
    """Figure-3 buckets in :data:`~repro.sim.BUCKETS` order, extras
    (``skew``) after, alphabetically."""
    seen = set()
    for p in paths:
        seen.update(p.buckets)
    extras = sorted(seen - set(BUCKETS))
    return [b for b in BUCKETS if b in seen] + extras


def render_path(path: CriticalPath, name: str = "",
                max_steps: int = 30) -> str:
    """ASCII rendering: the chain (longest steps kept, short runs
    elided) followed by the per-bucket summary."""
    title = f"critical path{f' [{name}]' if name else ''}"
    lines = [title, "=" * len(title)]
    keep = set()
    if len(path.steps) > max_steps:
        by_dur = sorted(range(len(path.steps)),
                        key=lambda i: -path.steps[i].dur_us)
        keep = set(by_dur[:max_steps])
    elided = 0
    elided_us = 0.0
    for i, s in enumerate(path.steps):
        if keep and i not in keep:
            elided += 1
            elided_us += s.dur_us
            continue
        if elided:
            lines.append(f"    ... {elided} steps ({elided_us:.1f} us) ...")
            elided, elided_us = 0, 0.0
        if s.kind == "seg":
            lines.append(f"  [{s.dur_us:10.1f} us] {s.track:<5} "
                         f"{s.label or 'run'}")
        else:
            lines.append(f"  [{s.dur_us:10.1f} us] {s.track:>5} "
                         f"--{s.label}--> {s.to_track}")
    if elided:
        lines.append(f"    ... {elided} steps ({elided_us:.1f} us) ...")
    lines.append("")
    lines.append(f"  path total  {path.total_us:12.1f} us "
                 f"({len(path.steps)} steps, start skew "
                 f"{path.start_skew_us:.1f} us at {path.terminal_track})")
    lines.append(f"  wall        {path.wall_us:12.1f} us "
                 f"(residual {path.residual_us:+.3e} us)")
    for b in _bucket_names([path]):
        us = path.buckets.get(b, 0.0)
        share = us / path.total_us if path.total_us > 0 else 0.0
        lines.append(f"    {b:<10} {us:12.1f} us  {share:6.1%}")
    return "\n".join(lines)


def render_ladder_diff(paths: Dict[str, CriticalPath]) -> str:
    """Side-by-side bucket table across protocol variants, with the
    change in path total relative to the first (Base) column."""
    names = list(paths)
    buckets = _bucket_names(list(paths.values()))
    w = max(10, *(len(n) for n in names)) + 2
    head = f"{'bucket':<12}" + "".join(f"{n:>{w}}" for n in names)
    lines = ["critical-path ladder (us)", head, "-" * len(head)]
    for b in buckets:
        row = f"{b:<12}"
        for n in names:
            row += f"{paths[n].buckets.get(b, 0.0):>{w}.1f}"
        lines.append(row)
    row = f"{'total':<12}"
    for n in names:
        row += f"{paths[n].total_us:>{w}.1f}"
    lines.append(row)
    base = paths[names[0]].total_us
    row = f"{'vs ' + names[0]:<12}"
    for n in names:
        delta = (paths[n].total_us / base - 1.0) if base > 0 else 0.0
        row += f"{delta:>{w}.1%}"
    lines.append(row)
    return "\n".join(lines)

