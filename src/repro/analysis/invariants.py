"""Run-time protocol invariant checking (the ``--check`` harness).

While the sanitizer replays a recorded trace offline, this module
asserts predicates *as the simulation runs*, at the protocol's own
commit points:

* **page-state legality** — every page-protection transition must be
  one the HLRC state machine allows, for the reason the protocol gives
  (a fault opens an INVALID page, a write upgrades to WRITE, an
  interval close downgrades WRITE to READ, a write notice invalidates).
* **interval closure** — closing an interval must advance the node's
  own clock component to exactly the interval log's index (release
  points cut execution into contiguous intervals).
* **clock monotonicity** — an acquire's merge must dominate both the
  previous clock and the acquired timestamp.
* **barrier epoch agreement** — every barrier episode's global clock
  must equal the interval log's closed indices and be monotone across
  episodes.
* **time accounting** — at the end of the timed section every rank's
  Figure-3 bucket sum must equal its wall time within
  :data:`~repro.sim.stats.TIME_TOLERANCE_US` (each blocked
  microsecond lands in exactly one bucket).

:class:`HLRCProtocol` calls the ``on_*`` hooks when a checker is
installed; the runner's ``--check`` flag (and ``repro check``) toggles
installation, so unchecked runs pay nothing.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from ..sim import TIME_TOLERANCE_US
from ..svm.pages import PageAccess
from ..svm.timestamps import Interval, VectorClock

__all__ = ["InvariantViolation", "InvariantChecker", "LEGAL_TRANSITIONS"]


class InvariantViolation(AssertionError):
    """A protocol invariant did not hold during a checked run."""


#: (why, old-state, new-state) triples the page state machine allows.
LEGAL_TRANSITIONS = frozenset({
    ("fault", PageAccess.INVALID, PageAccess.READ),
    ("fault", PageAccess.INVALID, PageAccess.WRITE),
    ("write", PageAccess.READ, PageAccess.WRITE),
    ("write", PageAccess.INVALID, PageAccess.WRITE),
    ("invalidate", PageAccess.READ, PageAccess.INVALID),
    ("invalidate", PageAccess.WRITE, PageAccess.INVALID),
    ("close", PageAccess.WRITE, PageAccess.READ),
    ("migrate", PageAccess.INVALID, PageAccess.READ),
    ("migrate", PageAccess.READ, PageAccess.READ),
    ("migrate", PageAccess.WRITE, PageAccess.READ),
})


class InvariantChecker:
    """Registers run-time assertable predicates with a protocol.

    With ``strict`` (the default) a violation raises
    :class:`InvariantViolation` at the offending simulation step —
    the traceback points into the protocol action that broke the
    invariant.  With ``strict=False`` violations accumulate in
    :attr:`violations` for later inspection.
    """

    def __init__(self, protocol: Any, strict: bool = True):
        self.protocol = protocol
        self.strict = strict
        self.violations: List[str] = []
        self.checked = 0
        self._last_epoch_clock: Optional[VectorClock] = None

    def install(self) -> "InvariantChecker":
        """Wire the hooks into the protocol and its page tables."""
        self.protocol.invariants = self
        for table in self.protocol.tables:
            table.on_transition = self.on_page_transition
        return self

    def uninstall(self) -> None:
        self.protocol.invariants = None
        for table in self.protocol.tables:
            table.on_transition = None

    def _fail(self, message: str) -> None:
        self.violations.append(message)
        if self.strict:
            raise InvariantViolation(message)

    # --------------------------------------------------------------- hooks

    def on_page_transition(self, node: int, gid: int, old: PageAccess,
                           new: PageAccess, why: str) -> None:
        """Called by a NodePageTable whenever page protection changes."""
        self.checked += 1
        if (why, old, new) not in LEGAL_TRANSITIONS:
            self._fail(
                f"illegal page transition at node {node}: page {gid} "
                f"{old.name} -> {new.name} on {why!r}")

    def on_interval_close(self, node: int, interval: Interval) -> None:
        """Called right after an interval is appended to the log."""
        self.checked += 1
        proto = self.protocol
        logged = proto.interval_log.current_index(node)
        if interval.index != logged:
            self._fail(
                f"interval {interval.index} of node {node} closed but "
                f"the log head is {logged}")
        clock_self = proto.node_clock[node][node]
        if clock_self != interval.index:
            self._fail(
                f"node {node} closed interval {interval.index} but its "
                f"clock component is {clock_self}")
        if not interval.pages:
            self._fail(
                f"node {node} closed empty interval {interval.index}")

    def on_clock_merge(self, node: int, before: Tuple[int, ...],
                       after: VectorClock, want: VectorClock) -> None:
        """Called after an acquire merges ``want`` into a node clock."""
        self.checked += 1
        after_values = after.values
        if len(before) != len(after_values) or any(
                a < b for a, b in zip(after_values, before)):
            self._fail(
                f"node {node} clock regressed from {before} to "
                f"{after_values}")
        if not after.dominates(want):
            self._fail(
                f"node {node} merged to {after_values}, which does not "
                f"dominate the acquired timestamp {want.values}")

    def on_barrier_epoch(self, epoch: int, clock: VectorClock) -> None:
        """Called once per barrier episode with its global clock."""
        self.checked += 1
        proto = self.protocol
        expected = tuple(proto.interval_log.current_index(n)
                         for n in range(len(clock)))
        if clock.values != expected:
            self._fail(
                f"barrier epoch {epoch} clock {clock.values} disagrees "
                f"with the interval log {expected}")
        if self._last_epoch_clock is not None and not clock.dominates(
                self._last_epoch_clock):
            self._fail(
                f"barrier epoch {epoch} clock {clock.values} regressed "
                f"from {self._last_epoch_clock.values}")
        self._last_epoch_clock = clock.copy()

    def on_run_complete(self, result) -> None:
        """Called by the runner with the run's result after the timed
        section: checks every rank's sum-equals-wall residual."""
        for rank, residual in enumerate(result.residual_us):
            self.checked += 1
            if abs(residual) > TIME_TOLERANCE_US:
                self._fail(
                    f"time accounting broken at rank {rank}: bucket sum "
                    f"{result.buckets[rank].total:.6f} us misses wall "
                    f"{result.wall_us[rank]:.6f} us by {residual:.3e} us "
                    f"(every blocked microsecond must land in exactly "
                    f"one bucket)")
