"""Critical-path extraction from causal span traces.

Folds the ``span.*`` records of a spanned run (:mod:`repro.sim.spans`)
into an index as they arrive, in trace order.  :class:`CriticalPathFold`
is a trace sink: ``collect_critpath`` passes it to the run as its
tracer, so the index grows while the run records spans and no span row
is stored.  :func:`extract_critical_path` feeds the same fold from rows
already recorded (``iter(tracer)``, a list).  The index keeps, per
track, only the open spans, one mark per begin or end and the resume
points, in flat columns, and the flows by id.  The walk goes
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

The fold numbers span rows in arrival order, and both moves strictly
decrease that cursor, so the walk terminates; because each segment and
edge spans exactly the gap between consecutive cursors, the step
durations telescope: their sum equals the time from the terminal rank's
``run`` begin to the final ``run`` end *exactly*.  The remaining gap —
ranks leave the initialization barrier at slightly different instants,
and the chain bottoms out at one of them — is reported as
``start_skew_us`` and charged to a synthetic ``skew`` bucket, so
``total_us`` must reconcile with the wall time (last end minus first
begin) to within ``TIME_TOLERANCE_US``.  That reconciliation is the
extractor's self-check: the ``critical-path`` sanitizer pass and
``repro critpath`` both fail on any residual.

Caveat: host-handler tracks (``h<node>``) are shared by interleaved
activations, so "latest resume point" can occasionally attribute a
segment to a concurrent activation's waker.  The telescoping identity
is unaffected — only bucket attribution blurs, never the total.
"""

from __future__ import annotations

import bisect
import math
from array import array
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from ..sim import BUCKETS, TIME_TOLERANCE_US
from ..sim.trace import TraceEvent, Tracer

__all__ = ["CriticalPath", "CriticalPathFold", "PathStep",
           "extract_critical_path",
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


# ----------------------------------------------------------------- fold

#: the (bucket, name) of a span, shared by every mark it labels.
_Label = Tuple[str, str]


class _Lane:
    """One track's share of the index, appended to in record order.

    ``stack`` holds the track's open spans as ``(sid, label)``,
    innermost last; an end removes its own entry wherever it sits, so a
    non-LIFO close on an ``h<node>`` track leaves nothing behind.  Each
    begin or end is a *mark*: its ordinal, its time and the label of the
    innermost span open after it (``None`` when the track goes idle).
    The time between two consecutive marks belongs to the first one's
    label.  Resume points (wakes and linked begins) are an ordinal, a
    time and the flow id that made the track runnable.
    """

    __slots__ = ("track", "stack", "mark_at", "mark_t", "mark_label",
                 "resume_at", "resume_t", "resume_fid")

    def __init__(self, track: str) -> None:
        self.track = track
        self.stack: List[Tuple[int, _Label]] = []
        self.mark_at = array("q")
        self.mark_t = array("d")
        self.mark_label: List[Optional[_Label]] = []
        self.resume_at = array("q")
        self.resume_t = array("d")
        self.resume_fid = array("q")

    def mark(self, at: int, t: float) -> None:
        self.mark_at.append(at)
        self.mark_t.append(t)
        stack = self.stack
        self.mark_label.append(stack[-1][1] if stack else None)

    def resume(self, at: int, t: float, fid: int) -> None:
        self.resume_at.append(at)
        self.resume_t.append(t)
        self.resume_fid.append(fid)

    def latest_resume(self, at: int) -> Optional[Tuple[int, float, int]]:
        """Latest resume point strictly before ordinal ``at``."""
        i = bisect.bisect_left(self.resume_at, at)
        if not i:
            return None
        i -= 1
        return self.resume_at[i], self.resume_t[i], self.resume_fid[i]

    def attribute(self, a0: int, t0: float, a1: int,
                  t1: float) -> Tuple[Dict[str, float], str]:
        """Bucket attribution of [a0, a1) by innermost span coverage;
        uncovered time goes to ``other``.  Also returns the name of the
        longest covering piece (for display)."""
        at, ts, labels = self.mark_at, self.mark_t, self.mark_label
        out: Dict[str, float] = {}
        longest, name = 0.0, ""
        covered = 0.0
        for j in range(max(bisect.bisect_right(at, a0) - 1, 0),
                       len(at) - 1):
            if at[j] >= a1:
                break
            label = labels[j]
            if label is None:
                continue
            lo = max(ts[j], t0)
            hi = min(ts[j + 1], t1)
            if hi <= lo:
                continue
            bucket = label[0]
            out[bucket] = out.get(bucket, 0.0) + (hi - lo)
            covered += hi - lo
            if hi - lo > longest:
                longest, name = hi - lo, label[1]
        gap = (t1 - t0) - covered
        if gap > 0.0:
            out["other"] = out.get("other", 0.0) + gap
        return out, name


class CriticalPathFold:
    """The critical-path index of a spanned run, folded row by row.

    A trace sink: :meth:`append` and :meth:`record` take what emitters
    hand a :class:`~repro.sim.Tracer`, so the fold can be the run's
    tracer and index ``span.*`` rows as they are recorded, without a
    row being stored.  Rows of other families are skipped.
    When ``tracer`` is given, every row is also forwarded to it.
    :meth:`path` walks the index.

    Rows are numbered by the fold itself, in arrival order, so the
    index and the path do not depend on which families a tracer
    numbers.
    """

    def __init__(self, tracer: Optional[Tracer] = None) -> None:
        #: the sink every row is forwarded to (None: fold only).
        self.tracer = tracer
        self._at = 0                       # span rows folded
        self._last_t = -math.inf
        self._lanes: Dict[str, _Lane] = {}
        #: open spans: sid -> (its stack entry, its lane)
        self._open: Dict[int, Tuple[Tuple[int, _Label], _Lane]] = {}
        self._labels: Dict[_Label, _Label] = {}
        #: fid -> (ordinal, t, track, kind, bucket) of its source
        self._flows: Dict[int, Tuple[int, float, str, str, str]] = {}
        #: run spans: track -> (ordinal, t) of its begin; and ends.
        self._run_begin: Dict[str, Tuple[int, float]] = {}
        self._run_end: Dict[str, Tuple[int, float]] = {}

    # ------------------------------------------------------------- sink

    def append(self, t: float, category: str,
               fields: Dict[str, Any]) -> None:
        """Fold one row (the :meth:`Tracer.append` surface)."""
        if self.tracer is not None:
            self.tracer.append(t, category, fields)
        fold = _FOLDS.get(category)
        if fold is None:
            return
        if t < self._last_t:
            raise ValueError(
                f"span row {category} at t={t} arrives after "
                f"t={self._last_t}: pass the rows in trace order")
        self._last_t = t
        self._at += 1
        fold(self, self._at, t, fields)

    def record(self, t: float, category: str, **fields: Any) -> None:
        self.append(t, category, fields)

    def _lane(self, track: str) -> _Lane:
        lane = self._lanes.get(track)
        if lane is None:
            lane = self._lanes[track] = _Lane(track)
        return lane

    def _begin(self, at: int, t: float, f: Dict[str, Any]) -> None:
        track = f["track"]
        name = f.get("name", "")
        label = (f.get("bucket", "other"), name)
        label = self._labels.setdefault(label, label)
        lane = self._lane(track)
        entry = (f["sid"], label)
        lane.stack.append(entry)
        lane.mark(at, t)
        self._open[entry[0]] = (entry, lane)
        link = f.get("link")
        if link is not None:
            lane.resume(at, t, link)
        if name == "run":
            self._run_begin[track] = (at, t)

    def _end(self, at: int, t: float, f: Dict[str, Any]) -> None:
        opened = self._open.pop(f["sid"], None)
        if opened is None:
            return
        entry, lane = opened
        stack = lane.stack
        if stack[-1] is entry:
            stack.pop()
        else:
            stack.remove(entry)
        lane.mark(at, t)
        if entry[1][1] == "run":
            self._run_end[lane.track] = (at, t)

    def _flow(self, at: int, t: float, f: Dict[str, Any]) -> None:
        self._flows[f["fid"]] = (at, t, f["track"], f.get("kind", "flow"),
                                 f.get("bucket", "other"))

    def _wake(self, at: int, t: float, f: Dict[str, Any]) -> None:
        self._lane(f["track"]).resume(at, t, f["fid"])

    # ------------------------------------------------------------- walk

    def path(self) -> CriticalPath:
        """Walk the index back from the last ``run`` end.

        Raises :class:`ValueError` when no ``run`` span both began and
        ended (the run was not recorded with ``spans=True``).
        """
        runs = [(at, t, track) for track, (at, t) in self._run_end.items()
                if track in self._run_begin]
        if not runs:
            raise ValueError(
                "no completed 'run' spans in trace: record the run with "
                "spans=True (repro.runtime.run_svm) to extract a critical "
                "path")
        start_t = min(t for _, t in self._run_begin.values())
        cursor_at, cursor_t, track = max(runs)
        end_t = cursor_t

        steps: List[PathStep] = []
        complete = False
        terminal_track = track
        terminal_t = cursor_t
        # Each iteration strictly decreases the cursor's ordinal, so
        # this bound is never hit.
        for _ in range(self._at + 1):
            lane = self._lane(track)
            floor = self._run_begin.get(track)
            rp = lane.latest_resume(cursor_at)
            if floor is not None and (rp is None or rp[0] <= floor[0]):
                buckets, label = lane.attribute(floor[0], floor[1],
                                                cursor_at, cursor_t)
                steps.append(PathStep("seg", track, floor[1], cursor_t,
                                      buckets, label))
                complete = True
                terminal_track, terminal_t = track, floor[1]
                break
            if rp is None:
                terminal_track, terminal_t = track, cursor_t
                break
            r_at, rt, fid = rp
            buckets, label = lane.attribute(r_at, rt, cursor_at, cursor_t)
            steps.append(PathStep("seg", track, rt, cursor_t, buckets,
                                  label))
            flow = self._flows.get(fid)
            if flow is None:
                terminal_track, terminal_t = track, rt
                break
            f_at, ft, ftrack, fkind, fbucket = flow
            steps.append(PathStep("edge", ftrack, ft, rt,
                                  {fbucket: rt - ft}, fkind,
                                  to_track=track))
            track, cursor_at, cursor_t = ftrack, f_at, ft

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


#: category -> the fold step for its rows; other families are skipped.
_FOLDS = {"span.begin": CriticalPathFold._begin,
          "span.end": CriticalPathFold._end,
          "span.flow": CriticalPathFold._flow,
          "span.wake": CriticalPathFold._wake}


# ------------------------------------------------------------ extraction


def extract_critical_path(
        events: Union[Iterable[TraceEvent], CriticalPathFold]
) -> CriticalPath:
    """Extract the critical path of a spanned run.

    ``events`` is the :class:`CriticalPathFold` the run recorded into,
    or any iterable of rows in trace order (a list, a
    :class:`~repro.sim.Tracer` or ``iter(tracer)``), which is read once
    into a fresh fold; rows of other families are skipped.  Raises
    :class:`ValueError` when the trace carries no completed ``run``
    spans (the run was not executed with ``spans=True``) or when span
    rows arrive out of ``(t, seq)`` order.
    """
    if isinstance(events, CriticalPathFold):
        return events.path()
    fold = CriticalPathFold()
    append = fold.append
    last = (-math.inf, 0)
    for t, category, f, seq in events:
        if category in _FOLDS:
            key = (t, seq)
            if key <= last:
                raise ValueError(
                    f"span row seq {seq} at t={t} arrives out of "
                    f"(t, seq) order: pass the rows in trace order")
            last = key
            append(t, category, f)
    return fold.path()


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

