"""Interrupt-driven lock synchronization (the Base protocol's path).

Section 2, "Network interface locks" describes the baseline this
replaces: every lock has a home; an acquire sends a message to the
home, whose *host processor* is interrupted to append the requester to
a distributed list and forward the request to the last owner; the
owner's host is interrupted again to hand the lock over.  Because
protocol activity is coupled to the transfer, the owner-side handler
also closes the current interval, computes and propagates the diffs
(lazy diffing) and piggybacks the write notices on the grant message.

Same-node re-acquisition is cheap: the last owner keeps the lock until
another processor needs it, and HLRC-SMP exploits hardware coherence
within the node.
"""

from __future__ import annotations

import weakref
from typing import Any, Optional, Tuple

from ..sim.spans import node_track, rank_track
from ..vmmc.lockqueue import LockQueue, Token

__all__ = ["InterruptLockManager"]

LOCK_REQ_BYTES = 32
LOCK_FWD_BYTES = 32
GRANT_BASE_BYTES = 64
GRANT_PER_WN_BYTES = 8


class InterruptLockManager(LockQueue):
    """The lock queue's steps in interrupted host handlers."""

    def __init__(self, protocol):
        super().__init__(protocol.config, protocol.sim,
                         tracer=protocol.tracer, spans=protocol.spans)
        #: the owning protocol, which holds this manager: a proxy, so
        #: the two do not name each other in a reference cycle.
        self.proto = weakref.proxy(protocol)
        self.machine = protocol.machine
        self.local_fast_acquires = 0

    def _granted(self, tok: Token, node: int, lock_id: int,
                 ts: Any) -> None:
        self._trace("svmlock.granted", node=node, lock=lock_id,
                    rank=tok.holder)

    # ------------------------------------------------------------ host side

    def acquire(self, rank: int, lock_id: int):
        """Generator: returns the releaser's vector clock (or None for a
        transfer that stayed on this node)."""
        self._enter(lock_id)
        cfg = self.config
        node_id = cfg.node_of(rank)
        tok = self._token(node_id, lock_id)
        self._trace("svmlock.acquire", node=node_id, lock=lock_id,
                    rank=rank)
        if tok.free():
            # The last owner keeps the lock: same-node re-acquisition
            # through the node's hardware coherence, no messages.
            self.local_fast_acquires += 1
            tok.holder = rank
            self._trace("svmlock.granted", node=node_id, lock=lock_id,
                        rank=rank)
            yield self.sim.timeout(cfg.protocol_op_us)
            return None
        sp = self.spans
        track = rank_track(rank) if sp is not None else None
        ev = self._wait(node_id, lock_id, rank, track)
        home = self.home_of(lock_id)
        fid = sp.flow(track, "lock_req", "lock",
                      lock=lock_id) if sp is not None else None
        if home == node_id:
            # In-node request to the protocol process: no interrupt,
            # just a dispatch.
            self.sim.process(
                self._home_handler(lock_id, node_id, entry_delay=False,
                                   link=fid),
                name=f"lockhome.{lock_id}")
        else:
            def at_home(_msg):
                self.sim.process(
                    self._home_handler(lock_id, node_id, entry_delay=True,
                                       link=fid),
                    name=f"lockhome.{lock_id}")

            yield from self.proto.vmmc.send(
                node_id, home, LOCK_REQ_BYTES, kind="lock_req",
                on_delivered=at_home)
        ts = yield ev
        yield self.sim.timeout(cfg.notify_us)
        return ts

    def release(self, rank: int, lock_id: int):
        """Generator: mark the lock free; a queued transfer (if any) is
        handed to the node's protocol process."""
        node_id = self.config.node_of(rank)
        tok = self._release(node_id, lock_id, rank)
        self._trace("svmlock.release", node=node_id, lock=lock_id,
                    rank=rank, queue=tuple(tok.pending))
        yield self.sim.timeout(self.config.protocol_op_us)
        if tok.pending and not tok.busy:
            tok.busy = True
            sp = self.spans
            fid = sp.flow(rank_track(rank), "lock_handoff", "lock",
                          lock=lock_id) if sp is not None else None
            self.sim.process(self._release_grant_handler(node_id, lock_id,
                                                         link=fid),
                             name=f"lockrel.{lock_id}")

    # -------------------------------------------------------- handler side

    def _home_handler(self, lock_id: int, req_node: int, entry_delay: bool,
                      link: Optional[int] = None):
        """Home-side handler: maintain the distributed list, forward."""
        home = self.home_of(lock_id)
        node = self.machine.nodes[home]
        sp = self.spans
        htrack = node_track(home)

        def body():
            sid = sp.begin("lock.home", htrack, bucket="lock",
                           link=link, lock=lock_id) \
                if sp is not None else None
            yield self.sim.timeout(self.config.protocol_op_us)
            prev = self._chain(lock_id, req_node)
            if prev == home:
                # The chain ends here: run the owner logic in the same
                # handler activation.
                yield from self._owner_logic(home, lock_id, req_node)
            else:
                fid = sp.flow(htrack, "lock_fwd", "lock",
                              lock=lock_id) if sp is not None else None

                def at_owner(_msg):
                    self.sim.process(
                        self._owner_handler(prev, lock_id, req_node,
                                            link=fid),
                        name=f"lockown.{lock_id}")

                yield from self.proto.vmmc.send(
                    home, prev, LOCK_FWD_BYTES, kind="lock_fwd",
                    on_delivered=at_owner)
            if sp is not None:
                sp.end(sid)

        yield from node.handler(body(), entry_delay=entry_delay)

    def _owner_handler(self, owner_node: int, lock_id: int, req_node: int,
                       link: Optional[int] = None):
        """Owner-side interrupt handler for a forwarded request."""
        node = self.machine.nodes[owner_node]
        sp = self.spans

        def body():
            sid = sp.begin("lock.owner", node_track(owner_node),
                           bucket="lock", link=link, lock=lock_id) \
                if sp is not None else None
            yield self.sim.timeout(self.config.protocol_op_us)
            yield from self._owner_logic(owner_node, lock_id, req_node)
            if sp is not None:
                sp.end(sid)

        yield from node.handler(body())

    def _release_grant_handler(self, node_id: int, lock_id: int,
                               link: Optional[int] = None):
        """Dispatched by a release with a queued waiter: do the transfer."""
        node = self.machine.nodes[node_id]
        sp = self.spans

        def body():
            sid = sp.begin("lock.transfer", node_track(node_id),
                           bucket="lock", link=link, lock=lock_id) \
                if sp is not None else None
            head = self._handoff(node_id, lock_id)
            if head is not None:
                req_node, queue = head
                yield from self._grant(node_id, lock_id, req_node,
                                       queue=queue)
            else:
                # nothing to transfer after all: drop the guard the
                # release set when it scheduled us.
                self._token(node_id, lock_id).busy = False
            if sp is not None:
                sp.end(sid)

        yield from node.handler(body(), entry_delay=False)

    def _owner_logic(self, owner_node: int, lock_id: int, req_node: int):
        queue = self._grant_or_enqueue(owner_node, lock_id, req_node)
        if queue is None:
            yield from self._grant(owner_node, lock_id, req_node)
        else:
            self._trace("svmlock.wait", node=owner_node, lock=lock_id,
                        requester=req_node, queue=queue)

    def _grant(self, owner_node: int, lock_id: int, req_node: int,
               queue: Tuple[int, ...] = ()):
        """Transfer the lock; for remote transfers, close the interval,
        flush diffs (lazy diffing) and size the grant message by the
        write notices it must carry (Base) — exactly the asynchronous
        protocol processing GeNIMA eliminates.

        Holds the token's ``busy`` guard for its whole (yielding)
        duration: between the decision to grant and the token actually
        leaving, a local fast-path acquire must not be able to grab the
        lock — that would put two processes inside it.
        """
        tok_guard = self._token(owner_node, lock_id)
        self._trace("svmlock.grant", node=owner_node, lock=lock_id,
                    requester=req_node, queue=queue,
                    present=tok_guard.present,
                    held=tok_guard.holder is not None)
        tok_guard.busy = True
        try:
            yield from self._grant_body(owner_node, lock_id, req_node)
        finally:
            tok_guard.busy = False

    def _grant_body(self, owner_node: int, lock_id: int, req_node: int):
        proto = self.proto
        sp = self.spans
        otrack = node_track(owner_node)
        if req_node == owner_node:
            yield self.sim.timeout(self.config.protocol_op_us)
            fid = sp.flow(otrack, "lock_grant", "lock", lock=lock_id) \
                if sp is not None else None
            self._grant_local(req_node, lock_id, None, fid=fid)
            return
        # Close + flush on the owner's (interrupted) host processor.
        interval = yield from proto.close_interval_timed(owner_node)
        if interval is not None and proto.features.direct_writes:
            yield from proto.broadcast_wns(owner_node, interval,
                                           track=otrack)
        # Snapshot the timestamp BEFORE flushing: the flush yields, and
        # another local process may close a fresh interval meanwhile.
        # That interval's diffs are not flushed by this grant, so the
        # grant must not advertise it — a requester could otherwise
        # block on a diff that only flushes once the lock it is holding
        # circulates (deadlock).
        ts = proto.node_clock[owner_node].copy()
        yield from proto.flush_pending(owner_node, track=otrack)
        if proto.features.direct_writes:
            wn_count = 0  # notices were deposited eagerly at releases
        else:
            have = proto.node_clock[req_node]
            wn_count = proto.interval_log.count_between(have, ts)
        self._grant_remote(owner_node, lock_id)
        fid = sp.flow(otrack, "lock_grant", "lock", lock=lock_id) \
            if sp is not None else None
        yield from proto.vmmc.send(
            owner_node, req_node,
            GRANT_BASE_BYTES + GRANT_PER_WN_BYTES * wn_count,
            kind="lock_grant",
            on_delivered=lambda _m: self._arrive(
                req_node, lock_id, ts, fid=fid))

