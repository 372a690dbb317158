"""The distributed lock queue, written once for both of its placements.

Section 2, "Network interface locks": a lock's static home keeps the
tail of a distributed list of requesters and forwards each request to
the last owner, which grants at once when its token is free or queues
the requester until its holder releases.  Base runs these steps in
interrupted host handlers (:mod:`repro.svm.locks`), NIL in NI firmware
(:mod:`repro.vmmc.locks`); each subclasses :class:`LockQueue` and adds
only what a step costs, where it runs, its messages, span flows and
trace family.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

__all__ = ["LockQueue", "Token"]


class Token:
    """One lock's token state at one node."""

    __slots__ = ("present", "holder", "ts", "pending", "busy")

    def __init__(self):
        self.present = False
        #: who is inside the lock (the id its acquire waited under).
        self.holder: Any = None
        #: a protocol timestamp stored with the token (NIL), opaque here.
        self.ts: Any = None
        #: chain successors whose forwards reached this node; FIFO
        #: (forwards all come from the home, in order).
        self.pending: List[int] = []
        #: a grant that yields before the token leaves is under way.
        self.busy = False

    def free(self) -> bool:
        """Released, here, with nobody queued and no grant under way."""
        return (self.present and self.holder is None and not self.pending
                and not self.busy)


class LockQueue:
    """Home tails, per-node tokens and host waiters of every lock."""

    def __init__(self, config, sim, tracer=None, spans=None):
        self.config = config
        self.sim = sim
        #: optional repro.sim.Tracer and repro.sim.SpanTracer.
        self.tracer = tracer
        self.spans = spans
        #: home side: tail[lock] = the last requester node chained.
        self._tail: Dict[int, int] = {}
        #: tokens[node][lock]
        self._tokens: List[Dict[int, Token]] = [
            dict() for _ in range(config.nodes)]
        #: per (node, lock): FIFO of (holder, event, span track).
        self._host_waiters: Dict[Tuple[int, int], list] = {}
        # Statistics.
        self.acquires = 0
        self.local_grants = 0
        self.remote_grants = 0

    def _trace(self, category: str, **fields) -> None:
        if self.tracer is not None:
            self.tracer.append(self.sim.now, category, fields)

    def home_of(self, lock_id: int) -> int:
        return lock_id % self.config.nodes

    def _token(self, node: int, lock_id: int) -> Token:
        tokens = self._tokens[node]
        tok = tokens.get(lock_id)
        if tok is None:
            tok = tokens[lock_id] = Token()
        return tok

    def _enter(self, lock_id: int) -> None:
        """Count an acquire; a lock's first one places its token,
        released, at the lock's home."""
        if lock_id not in self._tail:
            home = self.home_of(lock_id)
            self._token(home, lock_id).present = True
            self._tail[lock_id] = home
        self.acquires += 1

    def _wait(self, node: int, lock_id: int, holder: Any,
              track: Optional[str]):
        """Queue a host waiter at ``node``: the event its grant fires."""
        ev = self.sim.event()
        waiters = self._host_waiters.get((node, lock_id))
        if waiters is None:
            waiters = self._host_waiters[node, lock_id] = []
        waiters.append((holder, ev, track))
        return ev

    def _chain(self, lock_id: int, requester: int) -> int:
        """Home side: append ``requester`` to the list; returns the
        previous tail, the node the request is forwarded to."""
        prev = self._tail[lock_id]
        self._tail[lock_id] = requester
        return prev

    def _grant_or_enqueue(self, owner: int, lock_id: int,
                          requester: int) -> Optional[tuple]:
        """Last owner: None when the token is free to grant now, else
        queue ``requester`` and return the queue."""
        tok = self._token(owner, lock_id)
        if tok.free():
            return None
        tok.pending.append(requester)
        return tuple(tok.pending)

    def _release(self, node: int, lock_id: int, holder: Any) -> Token:
        """``holder`` leaves the lock; returns the token it released."""
        tok = self._token(node, lock_id)
        if tok.holder != holder:
            raise AssertionError(
                f"{holder} releasing lock {lock_id} at node {node} "
                f"held by {tok.holder}")
        tok.holder = None
        return tok

    def _handoff(self, node: int, lock_id: int
                 ) -> Optional[Tuple[int, tuple]]:
        """Release side: the queue's head and the whole queue, popping
        the head, when a released token has a queued requester."""
        tok = self._token(node, lock_id)
        if not (tok.pending and tok.present and tok.holder is None):
            return None
        queue = tuple(tok.pending)
        return tok.pending.pop(0), queue

    def _grant_local(self, node: int, lock_id: int, ts: Any,
                     fid: Optional[int] = None) -> None:
        """Same-node handoff: the token stays put."""
        self.local_grants += 1
        self._arrive(node, lock_id, ts, fid)

    def _grant_remote(self, owner: int, lock_id: int) -> None:
        """The token leaves ``owner``: its grant message is on the way."""
        tok = self._token(owner, lock_id)
        tok.present = False
        tok.ts = None
        self.remote_grants += 1

    def _arrive(self, node: int, lock_id: int, ts: Any,
                fid: Optional[int] = None) -> None:
        """A grant reaches ``node``: the head host waiter holds the
        lock and wakes with the grant's timestamp."""
        tok = self._token(node, lock_id)
        tok.present = True
        waiters = self._host_waiters.get((node, lock_id))
        if not waiters:
            raise AssertionError(
                f"grant of lock {lock_id} at node {node} with no waiter")
        holder, ev, track = waiters.pop(0)
        tok.holder = holder
        self._granted(tok, node, lock_id, ts)
        if self.spans is not None:
            self.spans.wake(fid, track, lock=lock_id)
        ev.succeed(ts)

    def _granted(self, tok: Token, node: int, lock_id: int,
                 ts: Any) -> None:
        """Placement hook: a grant carrying ``ts`` landed on ``tok``,
        now held; trace it in the placement's own family."""
        raise NotImplementedError

    def wait_depths(self) -> list:
        """Per-node lock wait depth: host waiters blocked on a grant at
        the node plus remote requesters queued behind its tokens, in
        one pass (the ``lock.wait_depth`` probe)."""
        out = [0] * self.config.nodes
        for (node, _lock), waiters in self._host_waiters.items():
            out[node] += len(waiters)
        for node, tokens in enumerate(self._tokens):
            for tok in tokens.values():
                out[node] += len(tok.pending)
        return out
