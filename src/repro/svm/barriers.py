"""Barrier synchronization with node-level combining.

Processes of one SMP node combine locally; the last arrival on each
node closes the node's interval, flushes its diffs and announces the
node's arrival to the barrier master.  Once every node has arrived, the
master releases them, distributing coherence information:

* **Base**: arrival messages carry the node's write notices and
  interrupt the master's host processor; release messages carry the
  full notice set back out.
* **DW/GeNIMA**: write notices were already deposited eagerly into
  every node at the flush, so arrivals and releases are plain remote
  deposits of small control words — no interrupts anywhere.

Barrier time divides into wait time and protocol time (flush, write
notices, mprotect at invalidation) — the split Table 2 reports.
"""

from __future__ import annotations

import weakref
from typing import Dict, Optional

from ..sim.spans import node_track, rank_track
from .timestamps import VectorClock

__all__ = ["BarrierManager"]

ARRIVE_BASE_BYTES = 32
RELEASE_BASE_BYTES = 32
WN_BYTES = 8


class _Episode:
    """State of one barrier crossing."""

    def __init__(self, sim, nodes: int, procs_per_node: int,
                 index: int = 0):
        self.sim = sim
        self.nodes = nodes
        self.procs_per_node = procs_per_node
        #: span track of this episode's coordinator process.
        self.btrack = f"b{index}"
        self.node_arrivals = [0] * nodes
        self.arrival_events = [sim.event() for _ in range(nodes)]
        self.release_events = [sim.event() for _ in range(nodes)]
        self.apply_started = [False] * nodes
        self.apply_done = [sim.event() for _ in range(nodes)]
        # Protocol-work spans per node, charged to every process of
        # the node: while one process flushes/applies, its node-mates
        # are protocol-bound too (in the real system each flushes its
        # own share) — this is the paper's BPT accounting.
        self.node_flush_us = [0.0] * nodes
        self.node_apply_us = [0.0] * nodes
        #: when each node finished announcing its arrival; the span
        #: from here to the node's release is coordination +
        #: communication (the paper's BPT includes communication).
        self.node_announced_at = [None] * nodes
        self.node_released_at = [None] * nodes
        self.global_clock: Optional[VectorClock] = None
        #: write-notice pages carried per node's arrival (Base sizing).
        self.wn_pages = [0] * nodes
        self.completed = 0


class BarrierManager:
    """One global barrier spanning all processes."""

    def __init__(self, protocol):
        #: the owning protocol, which holds this manager: a proxy, so
        #: the two do not name each other in a reference cycle.
        self.proto = weakref.proxy(protocol)
        self.machine = protocol.machine
        self.sim = protocol.sim
        self.config = protocol.config
        self.master = 0  # node 0 gathers arrivals and sends releases
        self._episodes: Dict[int, _Episode] = {}
        self._rank_epoch = [0] * self.config.total_procs
        self.crossings = 0

    def epoch_of(self, rank: int) -> int:
        """The barrier episode ``rank`` would enter next."""
        return self._rank_epoch[rank]

    def _episode(self, index: int) -> _Episode:
        ep = self._episodes.get(index)
        if ep is None:
            ep = _Episode(self.sim, self.config.nodes,
                          self.config.procs_per_node, index=index)
            self._episodes[index] = ep
            self.sim.process(self._coordinate(ep, index),
                             name=f"barrier.{index}")
        return ep

    # -------------------------------------------------------------- barrier

    def barrier(self, rank: int):
        """Generator: block until every process has arrived."""
        proto = self.proto
        cfg = self.config
        node_id = cfg.node_of(rank)
        t0 = self.sim.now
        index = self._rank_epoch[rank]
        self._rank_epoch[rank] += 1
        ep = self._episode(index)

        ep.node_arrivals[node_id] += 1
        did_node_work = False
        if ep.node_arrivals[node_id] == cfg.procs_per_node:
            # Last process of the node: do the node's barrier protocol
            # work (this is where Table 2's protocol time accrues).
            did_node_work = True
            tp = self.sim.now
            track = rank_track(rank) if proto.spans is not None else None
            interval = yield from proto.close_interval_timed(node_id)
            if interval is not None:
                ep.wn_pages[node_id] = len(interval.pages)
                if proto.features.direct_writes:
                    yield from proto.broadcast_wns(node_id, interval,
                                                   track=track)
            yield from proto.flush_pending(node_id, track=track)
            ep.node_flush_us[node_id] = self.sim.now - tp
            proto.barrier_protocol_us[rank] += ep.node_flush_us[node_id]
            yield from self._announce_arrival(ep, node_id, track=track)
            ep.node_announced_at[node_id] = self.sim.now

        # Wait for the master's release of this node.
        yield ep.release_events[node_id]
        if ep.node_released_at[node_id] is None:
            ep.node_released_at[node_id] = self.sim.now
        # Announce-to-release is coordination + communication time
        # (e.g. a diff-message flood delaying the control traffic);
        # the remainder of the wait is load imbalance.  The sentinel for
        # "never announced" is None, not falsiness: an announce at sim
        # time exactly 0.0 is a real announce and must not be dropped.
        announced = ep.node_announced_at[node_id]
        if announced is None:
            announced = ep.node_released_at[node_id]
        proto.barrier_protocol_us[rank] += max(
            ep.node_released_at[node_id] - announced, 0.0)

        # First process to resume on each node applies the invalidations.
        if not ep.apply_started[node_id]:
            ep.apply_started[node_id] = True
            tp = self.sim.now
            yield from proto.apply_incoming(rank, ep.global_clock)
            ep.node_apply_us[node_id] = self.sim.now - tp
            proto.barrier_protocol_us[rank] += ep.node_apply_us[node_id]
            ep.apply_done[node_id].succeed()
        else:
            yield ep.apply_done[node_id]
            proto.barrier_protocol_us[rank] += ep.node_apply_us[node_id]
        if not did_node_work:
            # Node-mates spent the flush span protocol-bound as well.
            proto.barrier_protocol_us[rank] += ep.node_flush_us[node_id]

        ep.completed += 1
        if ep.completed == cfg.total_procs:
            del self._episodes[index]
            self.crossings += 1
        proto.buckets[rank].charge("barrier", self.sim.now - t0)

    def _announce_arrival(self, ep: _Episode, node_id: int,
                          track: Optional[str] = None):
        """Tell the master this node has arrived."""
        proto = self.proto
        sp = proto.spans if track is not None else None
        if node_id == self.master:
            if sp is not None:
                fid = sp.flow(track, "barrier_arrive", "barrier",
                              node=node_id)
                sp.wake(fid, ep.btrack, node=node_id)
            ep.arrival_events[node_id].succeed()
            return
        fid = sp.flow(track, "barrier_arrive", "barrier", node=node_id) \
            if sp is not None else None
        if proto.features.direct_writes:
            # Remote deposit of a control word; notices already pushed.
            size = ARRIVE_BASE_BYTES

            def deposited(_m):
                if sp is not None:
                    sp.wake(fid, ep.btrack, node=node_id)
                ep.arrival_events[node_id].succeed()

            yield from proto.vmmc.send(
                node_id, self.master, size, kind="barrier_arrive",
                on_delivered=deposited)
        else:
            # Base: arrival carries the node's write notices and is
            # handled by an interrupt at the master.
            size = ARRIVE_BASE_BYTES + WN_BYTES * ep.wn_pages[node_id]

            def at_master(_msg):
                self.sim.process(
                    self._master_arrival_handler(ep, node_id, link=fid),
                    name="barrier.arrive")

            yield from proto.vmmc.send(
                node_id, self.master, size, kind="barrier_arrive",
                on_delivered=at_master)

    def _master_arrival_handler(self, ep: _Episode, node_id: int,
                                link: Optional[int] = None):
        node = self.machine.nodes[self.master]
        sp = self.proto.spans
        mtrack = node_track(self.master)

        def body():
            sid = sp.begin("barrier.arrive", mtrack, bucket="barrier",
                           link=link, node=node_id) \
                if sp is not None else None
            yield self.sim.timeout(self.config.protocol_op_us)
            if sp is not None:
                fid = sp.flow(mtrack, "barrier_arrive", "barrier",
                              node=node_id)
                sp.wake(fid, ep.btrack, node=node_id)
            ep.arrival_events[node_id].succeed()
            if sp is not None:
                sp.end(sid)

        yield from node.handler(body())

    # ---------------------------------------------------------- coordination

    def _node_ranks(self, node_id: int):
        cfg = self.config
        return [r for r in range(cfg.total_procs)
                if cfg.node_of(r) == node_id]

    def _release_node(self, ep: _Episode, node_id: int,
                      fid: Optional[int] = None):
        """Record per-rank wakes for a release flow, then fire the event.

        Every rank of the node is blocked on the release event by
        construction (the coordinator only runs after the last arrival),
        so waking all of the node's rank tracks is causally sound.  The
        flow itself was recorded at send time by the coordinator.
        """
        sp = self.proto.spans
        if sp is not None and fid is not None:
            for r in self._node_ranks(node_id):
                sp.wake(fid, rank_track(r))
        ep.release_events[node_id].succeed()

    def _coordinate(self, ep: _Episode, index: int):
        """Master-side episode driver: collect arrivals, release all."""
        proto = self.proto
        cfg = self.config
        sp = proto.spans
        csid = sp.begin("barrier.coord", ep.btrack, bucket="barrier",
                        epoch=index) if sp is not None else None
        yield self.sim.all_of(ep.arrival_events)
        # Everyone flushed: the barrier makes every closed interval
        # visible to every node.
        ep.global_clock = VectorClock(values=[
            proto.interval_log.current_index(n) for n in range(cfg.nodes)])
        proto._trace("barrier.epoch", epoch=index,
                     clock=ep.global_clock.values)
        if proto.invariants is not None:
            proto.invariants.on_barrier_epoch(index, ep.global_clock)
        total_wn = sum(ep.wn_pages)
        if proto.features.direct_writes:
            # Plain deposits of go-flags.
            for node_id in range(cfg.nodes):
                if node_id == self.master:
                    continue
                fid = sp.flow(ep.btrack, "barrier_release", "barrier",
                              node=node_id) if sp is not None else None
                yield from proto.vmmc.send(
                    self.master, node_id, RELEASE_BASE_BYTES,
                    kind="barrier_release",
                    on_delivered=lambda _m, n=node_id, f=fid:
                        self._release_node(ep, n, fid=f))
            fid_m = sp.flow(ep.btrack, "barrier_release", "barrier",
                            node=self.master) if sp is not None else None
            self._release_node(ep, self.master, fid=fid_m)
        else:
            # Base: the master's handler broadcasts releases carrying
            # the collected write notices.
            mtrack = node_track(self.master)
            fidh = sp.flow(ep.btrack, "barrier_dispatch", "barrier") \
                if sp is not None else None

            def body():
                sid = sp.begin("barrier.release", mtrack,
                               bucket="barrier", link=fidh,
                               epoch=index) if sp is not None else None
                yield self.sim.timeout(cfg.protocol_op_us)
                for node_id in range(cfg.nodes):
                    if node_id == self.master:
                        continue
                    size = (RELEASE_BASE_BYTES
                            + WN_BYTES * (total_wn - ep.wn_pages[node_id]))
                    fid = sp.flow(mtrack, "barrier_release", "barrier",
                                  node=node_id) if sp is not None else None
                    yield from proto.vmmc.send(
                        self.master, node_id, size, kind="barrier_release",
                        on_delivered=lambda _m, n=node_id, f=fid:
                            self._release_node(ep, n, fid=f))
                fid_m = sp.flow(mtrack, "barrier_release", "barrier",
                                node=self.master) \
                    if sp is not None else None
                self._release_node(ep, self.master, fid=fid_m)
                if sp is not None:
                    sp.end(sid)

            yield from self.machine.nodes[self.master].handler(
                body(), entry_delay=False)
        if sp is not None:
            sp.end(csid)
