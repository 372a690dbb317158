"""NI locks: mutual exclusion implemented in network-interface firmware.

Section 2, "Network interface locks": every lock has a static home; the
home NI maintains the tail of a distributed waiter list; requests are
forwarded to the last owner, whose NI grants the lock when its host has
released it.  *No host processor other than the requester is involved*,
and lock traffic never enters the NI-to-host delivery FIFO, so it
cannot get stuck behind data packets (the Water-nsquared fix).

A protocol-managed timestamp travels with the lock as an opaque payload
("the network interface does not need to perform any interpretation or
operations on this timestamp").
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from ..hw import Message
from ..hw.packet import Packet
from ..sim import Timeout
from ..sim.spans import nic_track
from .api import VMMC

__all__ = ["NILockManager", "wait_depths"]

#: wire sizes: acquire/forward are one-word control ops; grants carry
#: the protocol timestamp.
ACQUIRE_BYTES = 16
FORWARD_BYTES = 16
GRANT_BYTES = 64


def wait_depths(manager) -> list:
    """Per-node lock wait depth of a lock manager — this module's NI
    locks or the Base protocol's interrupt-driven ones, which keep the
    same wait structures: host ranks blocked on a grant at the node
    plus remote requesters chained behind the node's tokens, in one
    pass (the ``lock.wait_depth`` probe)."""
    out = [0] * manager.config.nodes
    for (node, _lock), waiters in manager._host_waiters.items():
        out[node] += len(waiters)
    for node, tokens in enumerate(manager._tokens):
        for tok in tokens.values():
            out[node] += len(tok.pending)
    return out


class _Token:
    """Per-lock state kept in one NI's memory."""

    __slots__ = ("present", "held", "ts", "pending")

    def __init__(self):
        self.present = False
        self.held = False           # host currently inside the lock
        self.ts: Any = None          # opaque protocol timestamp
        #: chain successors whose forwards have reached this NI; FIFO
        #: (forwards all come from the home, in order).
        self.pending: List[int] = []


class NILockManager:
    """Firmware lock queues across all NIs of one machine."""

    def __init__(self, vmmc: VMMC, num_locks: int,
                 home_fn: Optional[Callable[[int], int]] = None,
                 tracer=None, spans=None):
        self.vmmc = vmmc
        self.machine = vmmc.machine
        self.sim = vmmc.sim
        self.config = vmmc.config
        #: optional repro.sim.Tracer receiving ``nilock.*`` events.
        self.tracer = tracer
        #: optional repro.sim.SpanTracer: lock_req/lock_fwd/lock_grant
        #: flows ride the messages' ``span_flow`` so the requester's
        #: wait links causally through home and owner NIs.
        self.spans = spans
        self.num_locks = num_locks
        nodes = self.config.nodes
        self._home_fn = home_fn or (lambda lock_id: lock_id % nodes)
        # Home-side list tails: tail[lock] = last requester node.
        self._tail: Dict[int, int] = {}
        # Per-NI token state: tokens[node][lock].
        self._tokens = [dict() for _ in range(nodes)]
        # Host-side waiters per (node, lock): FIFO of pending events.
        self._host_waiters: Dict[tuple, list] = {}
        for nic in self.machine.nics:
            nic.fw_handlers["lock_op"] = self._fw_lock_op
        # Statistics.
        self.acquires = 0
        self.remote_grants = 0
        self.local_grants = 0

    def _trace(self, category: str, **fields) -> None:
        if self.tracer is not None:
            self.tracer.append(self.sim.now, category, fields)

    # ------------------------------------------------------------- topology

    def home_of(self, lock_id: int) -> int:
        home = self._home_fn(lock_id)
        if not 0 <= home < self.config.nodes:
            raise ValueError(f"lock {lock_id} home {home} out of range")
        return home

    def _token(self, node: int, lock_id: int) -> _Token:
        tokens = self._tokens[node]
        tok = tokens.get(lock_id)
        if tok is None:
            tok = tokens[lock_id] = _Token()
        return tok

    def pending_waiter_node(self, node: int, lock_id: int):
        """Node recorded as next-in-line at ``node``'s NI, or None.

        The protocol's hybrid diff policy reads this at release time:
        when the next waiter is on the same node, no diffs need to be
        computed (Section 2, "Remote Deposit").
        """
        tok = self._tokens[node].get(lock_id)
        if tok is None or not tok.pending:
            return None
        return tok.pending[0]

    def init_lock(self, lock_id: int, ts: Any = None) -> None:
        """Place the token at the lock's home, released, with ``ts``."""
        home = self.home_of(lock_id)
        tok = self._token(home, lock_id)
        tok.present = True
        tok.ts = ts
        self._tail[lock_id] = home

    # ----------------------------------------------------------- host side

    def acquire(self, node: int, lock_id: int,
                track: Optional[str] = None):
        """Generator: acquire ``lock_id`` for a process on ``node``.

        ``track`` names the requester's span track (when spans are
        armed): the request flow originates there and the eventual
        grant's wake lands back on it.

        Returns the protocol timestamp carried by the grant.
        """
        if lock_id not in self._tail:
            self.init_lock(lock_id)
        self.acquires += 1
        self._trace("nilock.acquire", node=node, lock=lock_id)
        cfg = self.config
        ev = self.sim.event()
        wtrack = track if self.spans is not None else None
        waiters = self._host_waiters.get((node, lock_id))
        if waiters is None:
            waiters = self._host_waiters[node, lock_id] = []
        waiters.append((ev, wtrack))
        # Doorbell the request into our own NI; the *firmware* decides
        # atomically between a local re-grant ("the last owner keeps
        # the lock until another processor needs it") and the home
        # chain — deciding at the host would race with other local
        # acquirers.
        yield self.sim.timeout(cfg.post_overhead_us)
        yield from self._lanai_op(node, self._acquire_doorbell,
                                  node, lock_id, wtrack)
        ts = yield ev
        yield self.sim.timeout(cfg.notify_us)
        return ts

    def _acquire_doorbell(self, node: int, lock_id: int,
                          track: Optional[str] = None) -> None:
        """Firmware decision for a host acquire request."""
        tok = self._token(node, lock_id)
        home = self.home_of(lock_id)
        sp = self.spans if track is not None else None
        if tok.present and not tok.held and not tok.pending:
            self._grant(node, lock_id, node, src_track=track)
        elif home == node:
            self._home_acquire(node, lock_id, node, src_track=track)
        else:
            fid = sp.flow(track, "lock_req", "lock", lock=lock_id) \
                if sp is not None else None
            msg = Message(src=node, dst=home, size=ACQUIRE_BYTES,
                          kind="lock_op", deliver_to_host=False,
                          span_flow=fid,
                          payload=("acquire", lock_id, node))
            self.machine.nics[node].fw_send(msg)

    def release(self, node: int, lock_id: int, ts: Any = None,
                track: Optional[str] = None):
        """Generator: release ``lock_id``, storing ``ts`` in the NI.

        A purely local NI operation; if a waiter is queued at this NI
        the firmware hands the lock over immediately.
        """
        yield self.sim.timeout(self.config.post_overhead_us)
        yield from self._lanai_op(node, self._do_release, node, lock_id,
                                  ts, track if self.spans is not None
                                  else None)

    def _lanai_op(self, node: int, fn, *args):
        """Run a firmware action on ``node``'s LANai (host doorbell).

        The LANai is held inline, as in the NIC loops."""
        lanai = self.machine.nics[node].lanai
        yield lanai.request()
        try:
            yield Timeout(self.sim, self.config.ni_lock_op_us)
        finally:
            lanai.release()
        fn(*args)

    # -------------------------------------------------------- firmware side

    def _fw_lock_op(self, pkt: Packet):
        """Receive-path firmware handler for lock packets."""
        op = pkt.message.payload
        flow = pkt.message.span_flow
        node = pkt.dst

        def run():
            yield self.sim.timeout(self.config.ni_lock_op_us)
            kind = op[0]
            if kind == "acquire":
                _k, lock_id, requester = op
                self._home_acquire(node, lock_id, requester)
            elif kind == "forward":
                _k, lock_id, requester = op
                self._owner_forward(node, lock_id, requester)
            elif kind == "grant":
                _k, lock_id, ts = op
                self._arrive_grant(node, lock_id, ts, fid=flow)
            else:
                raise ValueError(f"unknown lock op {kind!r}")

        return run()

    def _home_acquire(self, home: int, lock_id: int, requester: int,
                      src_track: Optional[str] = None) -> None:
        """Home NI: append ``requester`` to the distributed list.

        ``src_track`` is set only when invoked straight from the local
        acquire doorbell; on the receive path the recv loop's ``ni.fw``
        span is open on this NI's track and serves as the flow source.
        """
        if lock_id not in self._tail:
            self.init_lock(lock_id)
        prev = self._tail[lock_id]
        self._tail[lock_id] = requester
        self._trace("nilock.chain", home=home, lock=lock_id,
                    requester=requester, prev=prev)
        if prev == home:
            self._owner_forward(home, lock_id, requester,
                                src_track=src_track)
        else:
            sp = self.spans
            fid = sp.flow(src_track or nic_track(home), "lock_fwd",
                          "lock", lock=lock_id) \
                if sp is not None else None
            msg = Message(src=home, dst=prev, size=FORWARD_BYTES,
                          kind="lock_op", deliver_to_host=False,
                          span_flow=fid,
                          payload=("forward", lock_id, requester))
            self.machine.nics[home].fw_send(msg)

    def _owner_forward(self, owner: int, lock_id: int, requester: int,
                       src_track: Optional[str] = None) -> None:
        """Last-owner NI: grant now or remember the waiter."""
        tok = self._token(owner, lock_id)
        if tok.present and not tok.held and not tok.pending:
            self._grant(owner, lock_id, requester, src_track=src_track)
        else:
            tok.pending.append(requester)
            self._trace("nilock.wait", node=owner, lock=lock_id,
                        requester=requester, queue=tuple(tok.pending))

    def _do_release(self, node: int, lock_id: int, ts: Any,
                    track: Optional[str] = None) -> None:
        tok = self._token(node, lock_id)
        if not (tok.present and tok.held):
            raise AssertionError(
                f"release of lock {lock_id} not held at node {node}")
        tok.held = False
        tok.ts = ts
        self._trace("nilock.release", node=node, lock=lock_id,
                    queue=tuple(tok.pending))
        if tok.pending:
            queue = tuple(tok.pending)
            self._grant(node, lock_id, tok.pending.pop(0), queue=queue,
                        src_track=track)

    def _grant(self, owner: int, lock_id: int, requester: int,
               queue: tuple = (), src_track: Optional[str] = None) -> None:
        tok = self._token(owner, lock_id)
        ts = tok.ts
        # ``queue`` is the NI's waiter list at the grant decision (the
        # granted requester at its head, if it was queued): the
        # sanitizer replays it to prove FIFO transfer.
        self._trace("nilock.grant", node=owner, lock=lock_id,
                    requester=requester, queue=queue,
                    present=tok.present, held=tok.held)
        sp = self.spans
        # The grant flow originates wherever the decision ran: the
        # releaser's/acquirer's own track for doorbell-driven grants,
        # this NI's firmware lane for receive-path grants.
        fid = sp.flow(src_track or nic_track(owner), "lock_grant",
                      "lock", lock=lock_id) if sp is not None else None
        if requester == owner:
            # Same-node handoff: token stays put.
            self.local_grants += 1
            self._arrive_grant(owner, lock_id, ts, fid=fid)
            return
        tok.present = False
        tok.ts = None
        self.remote_grants += 1
        msg = Message(src=owner, dst=requester, size=GRANT_BYTES,
                      kind="lock_op", deliver_to_host=False,
                      span_flow=fid,
                      payload=("grant", lock_id, ts))
        self.machine.nics[owner].fw_send(msg)

    def _arrive_grant(self, node: int, lock_id: int, ts: Any,
                      fid: Optional[int] = None) -> None:
        tok = self._token(node, lock_id)
        tok.present = True
        tok.held = True
        tok.ts = ts
        self._trace("nilock.granted", node=node, lock=lock_id)
        waiters = self._host_waiters.get((node, lock_id))
        if not waiters:
            raise AssertionError(
                f"grant of lock {lock_id} at node {node} with no waiter")
        ev, wtrack = waiters.pop(0)
        if self.spans is not None:
            self.spans.wake(fid, wtrack, lock=lock_id)
        ev.succeed(ts)
