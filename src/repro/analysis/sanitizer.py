"""Dynamic race & coherence sanitizer for protocol traces.

Consumes the event stream of an instrumented run (any protocol variant,
any app) and checks the properties the paper's argument rests on:

* **lost-write-notice** — a page fault whose ``needed`` versions miss a
  write the faulting node's vector clock has already seen: the write
  notice was lost or applied late, so a read could observe a page
  version not ordered after the write that produced it
  (release->acquire chain broken).
* **clock-regression** — a node's vector clock moved backwards in some
  component: merges must be pointwise maxima, so any regression means
  protocol state was corrupted.
* **lock-queue** — the distributed lock queue invariant: grants only
  from the node holding a released token, always to the queue head,
  exactly one grant per acquire (no double grants, no orphaned
  waiters).  One queue (``repro.vmmc.lockqueue``) runs in two
  placements, each tracing its own family: NI firmware (``nilock.*``)
  and the Base protocol's interrupt handlers (``svmlock.*``).
* **fetch-race** — a page fetch that accepted a version snapshot not
  satisfying its needed versions (a diff application raced with the
  fetch and the timestamp-check retry loop failed), or claiming a
  version no diff application ever produced.
* **barrier-epoch** — a process left a barrier episode before every
  process had entered it.
* **fault-recovery** — under injected faults (``repro.faults``), every
  dropped packet's message must eventually be acked: a drop the
  retransmit layer never repaired means a write notice, lock grant or
  diff silently vanished.
* **time-accounting** — on traces carrying end-of-run ``prof.rank``
  records (emitted when a run is both traced and profiled), each
  rank's Figure-3 bucket sum must equal its timed-section wall time.
* **critical-path** — on spanned traces, the critical path extracted
  by :mod:`repro.analysis.critpath` must reconcile with the
  timed-section wall time.

Every check is defined in this module, so ``SANITIZER_CHECKS`` is
complete however it was imported.  Each check declares the categories
it ``reads``; :func:`sanitize_run` records only those, and the
happens-before graph keeps only those.  Every finding carries the
offending trace slice for debugging.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Dict, Iterable, Iterator, List, Optional, Sequence, Tuple,
                    Type)

from ..sim import TIME_TOLERANCE_US
from ..sim.trace import TraceEvent
from .hb import HBGraph

__all__ = ["Finding", "SanitizerCheck", "Sanitizer", "SANITIZER_CHECKS",
           "register_check", "sanitize_run"]


@dataclass(frozen=True)
class Finding:
    """One detected protocol violation, with its evidence."""

    check: str
    message: str
    events: Tuple[TraceEvent, ...] = ()

    def __str__(self) -> str:
        lines = [f"[{self.check}] {self.message}"]
        lines.extend(f"    {e}" for e in self.events)
        return "\n".join(lines)


class SanitizerCheck:
    """Base class: one pass over the trace yielding findings.

    ``reads`` declares the categories the check reads: exact names
    (``"fault.fetch"``) or whole families (``"nilock.*"``).  The
    sanitizer records and keeps only what its checks declare, and
    ``hb.rows(...)`` gives a check those categories, in trace order;
    asking for an undeclared one raises.
    """

    name = "abstract"
    description = ""
    reads: Tuple[str, ...] = ()

    def run(self, hb: HBGraph) -> Iterator[Finding]:
        raise NotImplementedError


#: name -> check class; later PRs register their own passes here.
SANITIZER_CHECKS: Dict[str, Type[SanitizerCheck]] = {}


def register_check(cls: Type[SanitizerCheck]) -> Type[SanitizerCheck]:
    """Class decorator adding a check to the default sanitizer set."""
    if cls.name in SANITIZER_CHECKS:
        raise ValueError(f"duplicate sanitizer check {cls.name!r}")
    SANITIZER_CHECKS[cls.name] = cls
    return cls


# --------------------------------------------------------------- checks


@register_check
class WriteNoticeCheck(SanitizerCheck):
    """Reads must be ordered after the writes that produced them."""

    name = "lost-write-notice"
    description = ("a fault's needed versions must cover every write "
                   "its vector clock has seen for that page")
    reads = ("fault.fetch", "interval.close")

    def run(self, hb: HBGraph) -> Iterator[Finding]:
        for ev in hb.rows("fault.fetch"):
            _, _, f, seq = ev
            node = f["node"]
            gid = f["gid"]
            needed = dict(f.get("needed", ()))
            clock = tuple(f.get("clock", ()))
            for info in hb.writes_to(gid):
                if info.node == node or info.event[3] >= seq:
                    continue
                seen = (info.node < len(clock)
                        and clock[info.node] >= info.index)
                if seen and needed.get(info.node, 0) < info.index:
                    yield Finding(
                        self.name,
                        f"node {node} faulted page {gid} needing versions "
                        f"{needed}, but its clock {clock} already ordered "
                        f"it after interval {info.index} of node "
                        f"{info.node} (which wrote the page): the write "
                        f"notice was lost or applied late",
                        (info.event, ev))


@register_check
class ClockMonotonicityCheck(SanitizerCheck):
    """Vector clocks never regress and merges dominate their input."""

    name = "clock-regression"
    description = "per-node vector clocks must be pointwise non-decreasing"
    reads = ("interval.close", "clock.advance")

    def run(self, hb: HBGraph) -> Iterator[Finding]:
        last: Dict[int, Tuple[Tuple[int, ...], TraceEvent]] = {}
        for ev in hb.rows("interval.close", "clock.advance"):
            _, category, f, _ = ev
            clock = tuple(f.get("clock", ()))
            if not clock:
                continue
            node = f["node"]
            prev = last.get(node)
            if prev is not None:
                prev_clock, prev_ev = prev
                if len(prev_clock) != len(clock) or any(
                        a < b for a, b in zip(clock, prev_clock)):
                    yield Finding(
                        self.name,
                        f"node {node} clock regressed from {prev_clock} "
                        f"to {clock} (non-monotone merge)",
                        (prev_ev, ev))
            if category == "clock.advance":
                want = tuple(f.get("want", ()))
                if want and (len(want) != len(clock) or any(
                        c < w for c, w in zip(clock, want))):
                    yield Finding(
                        self.name,
                        f"node {node} merged to {clock}, which does not "
                        f"dominate the acquired timestamp {want}",
                        (ev,))
            last[node] = (clock, ev)


@register_check
class LockQueueCheck(SanitizerCheck):
    """The distributed lock-queue invariant, NI and interrupt flavours."""

    name = "lock-queue"
    description = ("grants come only from the token holder, go to the "
                   "queue head, and match acquires one-to-one")
    reads = ("nilock.*", "svmlock.*")

    def run(self, hb: HBGraph) -> Iterator[Finding]:
        for family in self.reads:
            yield from self._check_family(hb.rows(family))

    def _check_family(self, rows: Iterable[TraceEvent]
                      ) -> Iterator[Finding]:
        #: lock -> ("at", node) or ("flight", dst); unknown until the
        #: first grant (the token starts at the lock's home).
        location: Dict[int, Tuple[str, int]] = {}
        acquires: Dict[Tuple[int, int], List[TraceEvent]] = {}
        grants: Dict[Tuple[int, int], int] = {}
        for ev in rows:
            _, category, f, _ = ev
            op = category.split(".", 1)[1]
            lock = f.get("lock")
            node = f.get("node")
            if op == "acquire":
                acquires.setdefault((node, lock), []).append(ev)
            elif op == "grant":
                requester = f["requester"]
                queue = tuple(f.get("queue", ()))
                if f.get("present") is False:
                    yield Finding(
                        self.name,
                        f"lock {lock}: node {node} granted without "
                        f"holding the token (double grant)", (ev,))
                if f.get("held") is True:
                    yield Finding(
                        self.name,
                        f"lock {lock}: node {node} granted while the "
                        f"lock was still held", (ev,))
                if queue and requester != queue[0]:
                    yield Finding(
                        self.name,
                        f"lock {lock}: grant to node {requester} bypassed "
                        f"queue head {queue[0]} (queue {queue})", (ev,))
                loc = location.get(lock)
                if loc is not None and loc != ("at", node):
                    yield Finding(
                        self.name,
                        f"lock {lock}: node {node} granted but the token "
                        f"was {loc[0]} {loc[1]} (double grant)", (ev,))
                location[lock] = (("at", node) if requester == node
                                  else ("flight", requester))
            elif op == "granted":
                loc = location.get(lock)
                if loc is not None and loc not in (("at", node),
                                                   ("flight", node)):
                    yield Finding(
                        self.name,
                        f"lock {lock}: grant arrived at node {node} but "
                        f"the token was {loc[0]} {loc[1]}", (ev,))
                location[lock] = ("at", node)
                grants[(node, lock)] = grants.get((node, lock), 0) + 1
        for key, evs in sorted(acquires.items()):
            node, lock = key
            got = grants.get(key, 0)
            if got < len(evs):
                yield Finding(
                    self.name,
                    f"lock {lock}: node {node} posted {len(evs)} "
                    f"acquire(s) but received {got} grant(s): orphaned "
                    f"waiter", tuple(evs[got:]))
        for key in sorted(set(grants) - set(acquires)):
            node, lock = key
            yield Finding(
                self.name,
                f"lock {lock}: node {node} received {grants[key]} "
                f"grant(s) without any acquire", ())


@register_check
class FetchRaceCheck(SanitizerCheck):
    """Fetches must return versions that exist and satisfy the reader.

    A ``fetch.ok`` row's ``snapshot`` and ``needed`` are ``(writer,
    version)`` pairs sorted by writer, as the protocol records them,
    so the check walks them as they are; dicts are built only for a
    finding's message.
    """

    name = "fetch-race"
    description = ("an accepted page fetch must satisfy the needed "
                   "versions and only claim diffs actually applied")
    reads = ("home.apply", "fetch.ok")

    def run(self, hb: HBGraph) -> Iterator[Finding]:
        applied: Dict[Tuple[int, int], Tuple[int, TraceEvent]] = {}
        for ev in hb.rows("home.apply", "fetch.ok"):
            _, category, f, _ = ev
            if category == "home.apply":
                gid = f["gid"]
                writer = f["writer"]
                index = f["index"]
                prev = applied.get((gid, writer))
                if prev is None or index > prev[0]:
                    applied[(gid, writer)] = (index, ev)
            else:
                gid = f["gid"]
                node = f["node"]
                snapshot = f.get("snapshot", ())
                needed = f.get("needed", ())
                if needed and not _covers(snapshot, needed):
                    yield Finding(
                        self.name,
                        f"node {node} accepted page {gid} at versions "
                        f"{dict(snapshot)} while needing {dict(needed)}: "
                        f"a diff application raced with the fetch",
                        (ev,))
                for writer, version in snapshot:
                    if version > 0:
                        have = applied.get((gid, writer))
                        if have is None or version > have[0]:
                            yield Finding(
                                self.name,
                                f"page {gid} fetch by node {node} claims "
                                f"version {version} of writer {writer}, "
                                f"but no such diff was applied at the home",
                                (ev,) if have is None else (have[1], ev))


def _covers(snapshot: Sequence[Tuple[int, int]],
            needed: Sequence[Tuple[int, int]]) -> bool:
    """True if ``snapshot`` reaches every version in ``needed`` (both
    sorted ``(writer, version)`` pairs; a missing writer is at 0)."""
    j = 0
    n = len(snapshot)
    for writer, want in needed:
        while j < n and snapshot[j][0] < writer:
            j += 1
        have = snapshot[j][1] if j < n and snapshot[j][0] == writer else 0
        if have < want:
            return False
    return True


@register_check
class BarrierEpochCheck(SanitizerCheck):
    """No process leaves a barrier before every process entered it."""

    name = "barrier-epoch"
    description = "barrier exits must follow all same-epoch entries"
    reads = ("barrier.enter", "barrier.exit")

    def run(self, hb: HBGraph) -> Iterator[Finding]:
        enters: Dict[int, List[TraceEvent]] = {}
        exits: Dict[int, List[TraceEvent]] = {}
        for ev in hb.rows("barrier.enter"):
            enters.setdefault(ev[2].get("epoch", 0), []).append(ev)
        for ev in hb.rows("barrier.exit"):
            exits.setdefault(ev[2].get("epoch", 0), []).append(ev)
        for epoch, exit_evs in sorted(exits.items()):
            enter_evs = enters.get(epoch, [])
            if not enter_evs:
                continue
            last_enter = max(enter_evs, key=lambda e: e.seq)
            for ev in exit_evs:
                if ev.seq < last_enter.seq:
                    yield Finding(
                        self.name,
                        f"barrier epoch {epoch}: rank "
                        f"{ev.fields.get('rank')} exited before rank "
                        f"{last_enter.fields.get('rank')} entered",
                        (ev, last_enter))


@register_check
class FaultRecoveryCheck(SanitizerCheck):
    """Injected packet loss must always be repaired by the transport."""

    name = "fault-recovery"
    description = ("every dropped packet's message must eventually be "
                   "acked by the drop-tolerant transport")
    reads = ("retx.ack", "fault.drop")

    def run(self, hb: HBGraph) -> Iterator[Finding]:
        #: (msg_id, destination) pairs the sender saw acked.
        acked = {(f["msg"], f["dst"])
                 for _, _, f, _ in hb.rows("retx.ack")}
        for ev in hb.rows("fault.drop"):
            f = ev[2]
            if f.get("kind") == "retx_ack":
                # A lost ack is repaired by the sender's retransmit and
                # the receiver's re-ack of the original message.
                need = (f["acks_msg"], f["acker"])
                what = (f"ack for message {need[0]} from node "
                        f"{need[1]}")
            else:
                need = (f["msg"], f["dst"])
                what = (f"{f.get('kind')} message {need[0]} "
                        f"to node {need[1]}")
            if need not in acked:
                yield Finding(
                    self.name,
                    f"dropped {what} was never acked: the message "
                    f"(write notice, lock grant, diff...) was lost "
                    f"despite the retransmit layer",
                    (ev,))


@register_check
class TimeAccountingCheck(SanitizerCheck):
    """Per rank, the Figure-3 bucket sum must equal the timed wall."""

    name = "time-accounting"
    description = ("per-rank bucket sums must equal timed-section wall "
                   "time (prof.rank records)")
    reads = ("prof.rank",)

    def run(self, hb: HBGraph) -> Iterator[Finding]:
        for ev in hb.rows("prof.rank"):
            f = ev[2]
            residual = f.get("residual_us", 0.0)
            if abs(residual) > TIME_TOLERANCE_US:
                yield Finding(
                    self.name,
                    f"rank {f.get('rank')}: bucket sum "
                    f"{f.get('bucket_us')} us misses wall "
                    f"{f.get('wall_us')} us by {residual:.3e} us",
                    (ev,))


@register_check
class CriticalPathCheck(SanitizerCheck):
    """On spanned traces, the extracted path must reconcile with wall."""

    name = "critical-path"
    description = ("the critical path extracted from span records must "
                   "equal the timed-section wall time")
    reads = ("span.*",)

    def run(self, hb: HBGraph) -> Iterator[Finding]:
        if not any(f.get("name") == "run"
                   for _, _, f, _ in hb.rows("span.begin")):
            return  # not a spanned run: nothing to reconcile
        # Imported here to keep the extractor out of unspanned
        # sanitizer runs.
        from .critpath import extract_critical_path
        try:
            # The extractor reads span rows only.
            path = extract_critical_path(hb.rows("span.*"))
        except ValueError:
            return  # run spans never completed (truncated trace)
        if not path.complete:
            yield Finding(
                self.name,
                f"critical-path walk ended at {path.terminal_track} "
                f"without reaching a run begin: a flow edge or wake "
                f"record is missing from the span stream")
        elif not path.ok():
            yield Finding(
                self.name,
                f"critical path totals {path.total_us} us but the "
                f"timed section walls {path.wall_us} us (residual "
                f"{path.residual_us:+.3e} us): span records lost or "
                f"mis-linked")


# ------------------------------------------------------------- sanitizer


class Sanitizer:
    """Run all (or selected) checks over one trace."""

    def __init__(self, checks: Optional[Sequence[str]] = None):
        names = list(checks) if checks is not None \
            else sorted(SANITIZER_CHECKS)
        unknown = [n for n in names if n not in SANITIZER_CHECKS]
        if unknown:
            raise ValueError(f"unknown sanitizer checks: {unknown}")
        self.checks: List[SanitizerCheck] = [
            SANITIZER_CHECKS[n]() for n in names]
        #: every category the checks and the graph read.
        self.reads = sorted(set(HBGraph.reads).union(
            *(check.reads for check in self.checks)))

    def categories(self) -> List[str]:
        """The reads as :class:`~repro.sim.Tracer` categories: a
        ``family.*`` read records the family, an exact one itself."""
        return [name[:-2] if name.endswith(".*") else name
                for name in self.reads]

    def run(self, events: Iterable[TraceEvent]) -> List[Finding]:
        """Check ``events``, any iterable of trace rows, read once;
        the happens-before graph keeps the rows of the declared reads
        only, and each check sees just its own."""
        hb = HBGraph(events, self.reads)
        findings: List[Finding] = []
        for check in self.checks:
            findings.extend(check.run(hb.restricted(check.reads)))
        return findings


def sanitize_run(app: object, features: object, config: object = None,
                 check_invariants: bool = True
                 ) -> Tuple[object, List[Finding]]:
    """Run ``app`` under ``features`` traced, and sanitize the trace.

    The run records only the categories the checks read, so the
    ``seq`` of a finding's rows counts those rows alone.  Returns
    ``(RunResult, findings)``.  Also installs the runtime invariant
    checker unless ``check_invariants`` is False.
    """
    # Imported lazily: repro.runtime imports repro.analysis for --check.
    from ..runtime import run_svm
    from ..sim import Tracer
    sanitizer = Sanitizer()
    tracer = Tracer(categories=sanitizer.categories())
    result = run_svm(app, features, config=config, tracer=tracer,
                     check=check_invariants)
    return result, sanitizer.run(iter(tracer))
