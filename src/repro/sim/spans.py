"""Causal spans over the event tracer: begin/end pairs plus flow links.

A :class:`SpanTracer` layers *causal structure* on top of the flat
:class:`~repro.sim.trace.Tracer` stream.  It records four event
families, all as ordinary trace events (so they share the tracer's
sequence numbers, category filtering and canonical JSONL export):

``span.begin``
    Opens a span: ``sid`` (dense per-run id), ``name``, ``track`` (the
    execution lane it runs on), ``bucket`` (a Figure-3 category the
    span's self-time is charged to on the critical path), optional
    ``parent`` (the enclosing open span on the same track) and
    optional ``link`` (the flow id that *caused* this span — e.g. the
    message whose arrival dispatched a handler).

``span.end``
    Closes a span by ``sid``.

``span.flow``
    A cross-track causal edge's *source* point: ``fid`` (dense per-run
    id), ``kind`` (``page_req``, ``diff``, ``lock_grant``, ...),
    ``bucket``, the source ``track`` and (when a span is open there)
    the source span ``src``.

``span.wake``
    A flow edge's *sink* point: flow ``fid`` arrived at ``track`` and
    unblocked whatever was waiting there.  One flow may wake several
    waiters (a diff apply releasing all parked fetchers).

Tracks name the serial execution lanes of the simulated machine:
``r<rank>`` for application processes, ``h<node>`` for host protocol
handler activations, ``ni<node>`` for NI firmware, ``b<episode>`` for
barrier-coordinator processes.  Within one track, activity is serial,
so "the latest wake before time t" is exactly the event that made the
track runnable — the property the critical-path extractor
(:mod:`repro.analysis.critpath`) relies on when it walks backwards
from the end of the run.

Recording spans never touches the simulator: no events, no timeouts,
no process state.  A run with spans enabled therefore keeps the exact
event schedule of the same run without them; only the trace stream
gains ``span.*`` records (and their sequence numbers).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .trace import Tracer

__all__ = ["SpanTracer", "rank_track", "node_track", "nic_track"]


def rank_track(rank: int) -> str:
    """Track name for an application process (rank)."""
    return f"r{rank}"


def node_track(node: int) -> str:
    """Track name for a node's host-side protocol handler lane."""
    return f"h{node}"


def nic_track(node: int) -> str:
    """Track name for a node's NI firmware lane."""
    return f"ni{node}"


class SpanTracer:
    """Records causal spans into a :class:`Tracer`.

    ``sim`` supplies timestamps (anything with a ``now`` attribute).
    Span and flow ids are dense per-instance counters, so same-seed
    runs produce byte-identical span streams.
    """

    def __init__(self, tracer: Tracer, sim) -> None:
        self.tracer = tracer
        self.sim = sim
        self._next_sid = 0
        self._next_fid = 0
        self._stacks: Dict[str, List[int]] = {}
        #: open span -> its track; an end drops the entry.
        self._span_track: Dict[int, str] = {}

    # ------------------------------------------------------------- spans

    def current(self, track: str) -> Optional[int]:
        """The innermost open span on ``track`` (None if idle)."""
        stack = self._stacks.get(track)
        return stack[-1] if stack else None

    def begin(self, name: str, track: str, bucket: str = "other",
              link: Optional[int] = None, **fields) -> int:
        """Open a span and return its ``sid``.

        ``link`` names the flow that caused this span (recorded in the
        begin event so the extractor can jump the edge without a
        separate wake record).
        """
        sid = self._next_sid
        self._next_sid += 1
        stack = self._stacks.setdefault(track, [])
        rec: Dict[str, object] = {"sid": sid, "name": name,
                                  "track": track, "bucket": bucket}
        if stack:
            rec["parent"] = stack[-1]
        if link is not None:
            rec["link"] = link
        rec.update(fields)
        self.tracer.append(self.sim.now, "span.begin", rec)
        stack.append(sid)
        self._span_track[sid] = track
        return sid

    def _track_of(self, sid: int) -> str:
        track = self._span_track.get(sid)
        if track is None:
            # The extractor skips a row it cannot place on a track, so
            # an unknown sid would silently drop out of the path.
            raise ValueError(f"span {sid!r} is not open on this "
                             f"SpanTracer: never begun, or already ended")
        return track

    def end(self, sid: Optional[int], **fields) -> None:
        """Close span ``sid`` (no-op when ``sid`` is None).

        Tolerates non-LIFO closing: handler activations on the same
        track may interleave, so the sid is removed wherever it sits
        in the track's stack.  A sid that is not open here (never
        begun, or already ended) raises :class:`ValueError`.
        """
        if sid is None:
            return
        track = self._track_of(sid)
        del self._span_track[sid]
        stack = self._stacks[track]
        if sid in stack:
            stack.remove(sid)
        self.tracer.append(self.sim.now, "span.end",
                           {"sid": sid, "track": track, **fields})

    # ------------------------------------------------------------- flows

    def flow(self, track: str, kind: str, bucket: str = "other",
             **fields) -> int:
        """Record a flow source on ``track`` and return its ``fid``.

        The innermost open span on the track (if any) is recorded as
        the source span.
        """
        fid = self._next_fid
        self._next_fid += 1
        rec: Dict[str, object] = {"fid": fid, "kind": kind,
                                  "bucket": bucket, "track": track}
        src = self.current(track)
        if src is not None:
            rec["src"] = src
        rec.update(fields)
        self.tracer.append(self.sim.now, "span.flow", rec)
        return fid

    def flow_from(self, sid: int, kind: str, bucket: str = "other",
                  **fields) -> int:
        """Record a flow whose source is span ``sid`` explicitly (a
        sid that is not open here raises :class:`ValueError`)."""
        track = self._track_of(sid)
        fid = self._next_fid
        self._next_fid += 1
        self.tracer.append(self.sim.now, "span.flow",
                           {"fid": fid, "kind": kind, "bucket": bucket,
                            "track": track, "src": sid, **fields})
        return fid

    def wake(self, fid: Optional[int], track: Optional[str],
             **fields) -> None:
        """Record that flow ``fid`` unblocked ``track`` here.

        No-op when either is None, so call sites can thread optional
        flow ids without conditionals.
        """
        if fid is None or track is None:
            return
        self.tracer.append(self.sim.now, "span.wake",
                           {"fid": fid, "track": track, **fields})
