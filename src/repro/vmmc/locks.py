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

from typing import Any, Optional

from ..hw import Message
from ..hw.packet import Packet
from ..sim import Timeout
from ..sim.spans import nic_track
from .api import VMMC
from .lockqueue import LockQueue, Token

__all__ = ["NILockManager"]

#: wire sizes: acquire/forward are one-word control ops; grants carry
#: the protocol timestamp.
ACQUIRE_BYTES = 16
FORWARD_BYTES = 16
GRANT_BYTES = 64


class NILockManager(LockQueue):
    """The lock queue's steps in the firmware of every NI of a machine.

    A node's host processes share its NI's token, so the queue's
    holder of a lock is a node here.
    """

    def __init__(self, vmmc: VMMC, tracer=None, spans=None):
        # lock_req/lock_fwd/lock_grant span flows ride the messages'
        # ``span_flow``: a wait links causally through home and owner.
        super().__init__(vmmc.config, vmmc.sim, tracer=tracer, spans=spans)
        self.vmmc = vmmc
        self.machine = vmmc.machine
        for nic in self.machine.nics:
            nic.fw_handlers["lock_op"] = self._fw_lock_op

    def _granted(self, tok: Token, node: int, lock_id: int,
                 ts: Any) -> None:
        # The NI keeps the timestamp until the host's release stores
        # its own.
        tok.ts = ts
        self._trace("nilock.granted", node=node, lock=lock_id)

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

    # ----------------------------------------------------------- host side

    def acquire(self, node: int, lock_id: int,
                track: Optional[str] = None):
        """Generator: acquire ``lock_id`` for a process on ``node``.

        ``track`` names the requester's span track (when spans are
        armed): the request flow originates there and the eventual
        grant's wake lands back on it.

        Returns the protocol timestamp carried by the grant.
        """
        self._enter(lock_id)
        self._trace("nilock.acquire", node=node, lock=lock_id)
        wtrack = track if self.spans is not None else None
        ev = self._wait(node, lock_id, node, wtrack)
        # Doorbell the request into our own NI; the *firmware* decides
        # atomically between a local re-grant ("the last owner keeps
        # the lock until another processor needs it") and the home
        # chain — deciding at the host would race with other local
        # acquirers.
        yield self.sim.timeout(self.config.post_overhead_us)
        yield from self._lanai_op(node, self._acquire_doorbell,
                                  node, lock_id, wtrack)
        ts = yield ev
        yield self.sim.timeout(self.config.notify_us)
        return ts

    def _acquire_doorbell(self, node: int, lock_id: int,
                          track: Optional[str] = None) -> None:
        """Firmware decision for a host acquire request."""
        home = self.home_of(lock_id)
        sp = self.spans if track is not None else None
        if self._token(node, lock_id).free():
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
            kind, lock_id, arg = op
            if kind == "acquire":
                self._home_acquire(node, lock_id, arg)
            elif kind == "forward":
                self._owner_forward(node, lock_id, arg)
            elif kind == "grant":
                self._arrive(node, lock_id, arg, fid=flow)
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
        prev = self._chain(lock_id, requester)
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
        queue = self._grant_or_enqueue(owner, lock_id, requester)
        if queue is None:
            self._grant(owner, lock_id, requester, src_track=src_track)
        else:
            self._trace("nilock.wait", node=owner, lock=lock_id,
                        requester=requester, queue=queue)

    def _do_release(self, node: int, lock_id: int, ts: Any,
                    track: Optional[str] = None) -> None:
        tok = self._release(node, lock_id, node)
        tok.ts = ts
        self._trace("nilock.release", node=node, lock=lock_id,
                    queue=tuple(tok.pending))
        head = self._handoff(node, lock_id)
        if head is not None:
            requester, queue = head
            self._grant(node, lock_id, requester, queue=queue,
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
                    present=tok.present, held=tok.holder is not None)
        sp = self.spans
        # The grant flow originates wherever the decision ran: the
        # releaser's/acquirer's own track for doorbell-driven grants,
        # this NI's firmware lane for receive-path grants.
        fid = sp.flow(src_track or nic_track(owner), "lock_grant",
                      "lock", lock=lock_id) if sp is not None else None
        if requester == owner:
            self._grant_local(owner, lock_id, ts, fid=fid)
            return
        self._grant_remote(owner, lock_id)
        msg = Message(src=owner, dst=requester, size=GRANT_BYTES,
                      kind="lock_op", deliver_to_host=False,
                      span_flow=fid,
                      payload=("grant", lock_id, ts))
        self.machine.nics[owner].fw_send(msg)

