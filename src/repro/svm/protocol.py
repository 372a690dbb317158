"""The HLRC-SMP protocol engine and its GeNIMA extensions.

One class implements the whole protocol ladder of Section 3.3; a
:class:`~repro.svm.features.ProtocolFeatures` value selects which NI
mechanisms are used, from the interrupt-driven Base protocol to the
fully synchronous GeNIMA.

Application processes drive the engine through rank-level generator
operations (``compute`` / ``read`` / ``write`` / ``lock`` / ``unlock``
/ ``acquire_flag`` / ``release_flag`` / ``barrier``); every microsecond
of simulated time is charged to one of the Figure 3 execution-time
buckets, and mprotect / barrier-protocol time is tracked separately for
Table 2.

Protocol mechanics implemented here (see DESIGN.md for the mapping to
the paper's text): per-node page tables and vector clocks, intervals
and write notices, twin/diff bookkeeping with lazy (packed, interrupt
applied) or eager (direct-deposit) flushing, eager write-notice
broadcast, remote page fetch with the timestamp-check retry loop, and
home-side version tracking.
"""

from __future__ import annotations

import weakref
from functools import partial
from typing import Dict, List, Optional, Tuple

from ..hw import Machine
from ..sim import SimulationError, TimeBuckets
from ..sim.spans import nic_track, node_track, rank_track
from ..vmmc import NILockManager, VMMC
from ..vmmc.lockqueue import LockQueue
from .barriers import BarrierManager
from .diffs import DiffShape
from .features import ProtocolFeatures
from .locks import InterruptLockManager
from .mprotect import MprotectModel
from .pages import (HomePage, NodePageTable, PageAccess, PageDirectory,
                    SharedRegion)
from .timestamps import Interval, IntervalLog, VectorClock

__all__ = ["HLRCProtocol"]

#: small protocol message sizes on the wire (bytes)
PAGE_REQ_BYTES = 32
PAGE_REPLY_EXTRA_BYTES = 32
WN_BASE_BYTES = 24
WN_PER_PAGE_BYTES = 8


class HLRCProtocol:
    """Home-based LRC for SMP clusters, with optional NI mechanisms."""

    def __init__(self, machine: Machine, features: ProtocolFeatures,
                 vmmc: Optional[VMMC] = None, tracer=None, spans=None):
        self.machine = machine
        #: optional repro.sim.Tracer receiving protocol events.
        self.tracer = tracer
        #: optional repro.sim.SpanTracer receiving causal spans.
        self.spans = spans
        #: optional repro.analysis.InvariantChecker (see its install()).
        self.invariants = None
        self.sim = machine.sim
        self.config = machine.config
        self.features = features
        self.vmmc = vmmc or VMMC(machine)
        if spans is not None and self.vmmc.spans is None:
            # A protocol built standalone (tests) still spans fetches.
            self.vmmc.spans = spans
        nodes = self.config.nodes

        self.directory = PageDirectory(self.config)
        self.mprotect = MprotectModel(self.config)
        self.tables = [NodePageTable(n, self.config) for n in range(nodes)]
        self.interval_log = IntervalLog(nodes)
        #: per node: vector of interval indices whose notices are applied.
        self.node_clock = [VectorClock(nodes) for _ in range(nodes)]
        #: per node: latest broadcast interval received from each writer.
        self.wn_received = [[0] * nodes for _ in range(nodes)]
        #: per node: (writer, wanted interval, event, waiter span track).
        self._wn_waiters: List[List[Tuple[int, int, object,
                                          Optional[str]]]] = \
            [[] for _ in range(nodes)]
        #: per node: closed-but-unflushed intervals (lazy diffing).
        self.pending_flush: List[List[Tuple[int, Dict[int, DiffShape]]]] = \
            [[] for _ in range(nodes)]
        self._homes: Dict[int, HomePage] = {}
        self._flags: Dict[int, dict] = {}
        #: per gid: (needed versions, event, waiter span track).
        self._home_waiters: Dict[int, List[Tuple[Dict[int, int], object,
                                                 Optional[str]]]] = {}
        #: per (node, gid) fetch in flight: None, or the event the
        #: faults that joined it wait on.
        self._inflight_fetch: Dict[Tuple[int, int], object] = {}

        # Synchronization managers: one lock queue, in NI firmware or
        # in interrupted host handlers.
        self.locks = (NILockManager(self.vmmc, tracer=tracer, spans=spans)
                      if features.ni_locks else InterruptLockManager(self))
        self.barriers = BarrierManager(self)

        # Per-rank accounting.
        total = self.config.total_procs
        self.buckets: List[TimeBuckets] = [TimeBuckets() for _ in range(total)]
        self.barrier_protocol_us = [0.0] * total

        # Statistics.
        self.page_fetches = 0
        self.fetch_retries = 0
        self.diffs_sent = 0
        self.diff_runs_sent = 0
        self.wn_messages = 0
        self.home_allocations = 0
        self.home_migrations = 0
        # Deferred like the machine's, and through a proxy: the
        # registry is the machine's, so naming this protocol from it
        # would be a cycle.
        machine.metrics.defer(partial(HLRCProtocol._register_metrics,
                                      weakref.proxy(self)))

    def _register_metrics(self, metrics) -> None:
        """Deferred: the ``svm.*`` gauges, the per-node page-fault and
        invalidation probes (counters: the sampler differences them
        into per-slice rates) and the lock manager's wait depths."""
        metrics.register_gauges(
            "svm", self, "page_fetches", "fetch_retries", "diffs_sent",
            "diff_runs_sent", "wn_messages", "home_allocations",
            "home_migrations")
        metrics.register_gauge("svm.interrupts", self, "total_interrupts")
        metrics.register_probe(
            "svm.page_faults", "counter", self,
            lambda p: [t.read_faults + t.write_faults for t in p.tables])
        metrics.register_probe(
            "svm.invalidations", "counter", self,
            lambda p: [t.invalidations for t in p.tables])
        metrics.register_probe("lock.wait_depth", "gauge", self.locks,
                               LockQueue.wait_depths)

    def _trace(self, category: str, **fields) -> None:
        if self.tracer is not None:
            self.tracer.append(self.sim.now, category, fields)

    # ------------------------------------------------------------- regions

    def allocate(self, name: str, n_pages: int, home_policy: str = "blocked",
                 home_fn=None, concrete: bool = False) -> SharedRegion:
        """Allocate a shared region (and export homed pages for fetch)."""
        region = self.directory.allocate(
            name, n_pages, home_policy=home_policy, home_fn=home_fn,
            concrete=concrete)
        # With remote fetch only homes export their pages (Section 2's
        # scalability argument); deposit-based transfer would require
        # everyone to export everything.  First-touch pages are
        # exported when their home is assigned.
        for i in range(n_pages):
            home = region.home_of(i)
            if home is not None:
                self.vmmc.exports.export(home, region.gid(i))
        return region

    def _ensure_home(self, gid: int, toucher_node: int) -> int:
        """Resolve a page's home, assigning it on first touch.

        The paper counts home-allocation requests among the infrequent
        operations that are "not so critical for common-case system
        performance"; the assignment itself is a small protocol action
        folded into the triggering fault.
        """
        home = self.directory.home_of(gid)
        if home is None:
            region = self.directory.region_of(gid)
            region.homes[gid - region.base] = toucher_node
            self.vmmc.exports.export(toucher_node, gid)
            self.home_allocations += 1
            home = toucher_node
        return home

    def migrate_home(self, rank: int, region: SharedRegion, index: int):
        """Generator: migrate a page's home to the caller's node.

        Must be called at a quiescent point for the page (e.g. right
        after a barrier): the protocol refuses to migrate a page with
        parked requests, and in-flight diffs toward the old home are
        the caller's responsibility to have flushed (a barrier does).
        The authoritative copy is pulled from the old home and every
        node's directory is updated with small deposits.
        """
        node_id = self.config.node_of(rank)
        gid = region.gid(index)
        old = self.directory.home_of(gid)
        t0 = self.sim.now
        if old == node_id:
            return
        if self._home_waiters.get(gid):
            raise RuntimeError(
                f"page {gid} has parked requests; migrate at a "
                f"quiescent point")
        if old is None:
            self._ensure_home(gid, node_id)
            yield self.sim.timeout(self.config.protocol_op_us)
        else:
            # Pull the authoritative copy and its version vector.
            yield from self.vmmc.fetch(node_id, old,
                                       self.config.page_size + 64,
                                       track=rank_track(rank))
            region.homes[index] = node_id
            self.vmmc.exports.export(node_id, gid)
            # Tell everyone where the page now lives.
            for other in range(self.config.nodes):
                if other != node_id:
                    # home_update is a deliberate fire-and-forget
                    # broadcast: the homes table is global in this model,
                    # so the message only charges realistic network and
                    # deposit costs for the migration; nothing needs to
                    # observe its delivery.
                    yield from self.vmmc.send(  # repro: noqa[PROTO005]
                        node_id, other, 24, kind="home_update")
        self.tables[node_id].mark_valid(gid, why="migrate")
        self.home_migrations += 1
        self.buckets[rank].charge("data", self.sim.now - t0)

    def _home(self, gid: int) -> HomePage:
        hp = self._homes.get(gid)
        if hp is None:
            hp = HomePage()
            self._homes[gid] = hp
        return hp

    # -------------------------------------------------------------- compute

    def compute(self, rank: int, us: float, bus_intensity: float = 0.0):
        """Local computation (includes local memory stalls)."""
        node = self.machine.node_of(rank)
        t = node.compute_time(us, bus_intensity)
        t0 = self.sim.now
        yield self.sim.timeout(t)
        self.buckets[rank].charge("compute", self.sim.now - t0)

    # ----------------------------------------------------------------- read

    def read(self, rank: int, region: SharedRegion, indices):
        """Access pages for reading; faults fetch them from their homes."""
        node_id = self.config.node_of(rank)
        table = self.tables[node_id]
        t0 = self.sim.now
        for idx in indices:
            gid = region.gid(idx)
            if table.access(gid) is PageAccess.INVALID:
                yield from self._read_fault(rank, node_id, gid)
        self.buckets[rank].charge("data", self.sim.now - t0)

    def _read_fault(self, rank: int, node_id: int, gid: int):
        cfg = self.config
        table = self.tables[node_id]
        sp = self.spans
        track = rank_track(rank)
        sid = sp.begin("page.fault", track, bucket="data", gid=gid) \
            if sp is not None else None
        try:
            if self.tracer is not None:
                self._trace("fault.read", rank=rank, gid=gid)
            yield self.sim.timeout(cfg.page_fault_us)
            if table.access(gid) is not PageAccess.INVALID:
                # Another process of this node validated the page during
                # the trap: a second fetch's mark_valid could downgrade
                # a concurrent writer's WRITE to READ.
                return
            # Another process of this node may already be fetching the
            # page.  Its entry holds None until a second fault joins;
            # the first joiner makes the event every joiner waits on.
            key = (node_id, gid)
            inflight = self._inflight_fetch
            if key in inflight:
                done = inflight[key]
                if done is None:
                    done = inflight[key] = self.sim.event()
                yield done
                return
            inflight[key] = None
            try:
                # The clock as it stands here (the snapshot the trace
                # row records) names the write notices the node has
                # applied, hence the page version this fault must
                # observe, which the sanitizer replays against the
                # happens-before graph.
                needed = self.interval_log.needed(
                    gid, self.node_clock[node_id], node_id)
                if self.tracer is not None:
                    # Guarded at the call site: the sorted tuples below
                    # are per-fault allocations no one consumes on an
                    # untraced run.
                    self._trace("fault.fetch", node=node_id, gid=gid,
                                needed=tuple(sorted(needed.items())),
                                clock=self.node_clock[node_id].values)
                home = self._ensure_home(gid, node_id)
                if home == node_id:
                    yield from self._wait_home_ready(gid, needed,
                                                     track=track)
                elif self.features.remote_fetch:
                    yield from self._fetch_rf(node_id, gid, home, needed,
                                              track=track)
                else:
                    yield from self._fetch_base(node_id, gid, home,
                                                needed, track=track)
                cost = self.mprotect.protect(node_id, [gid])
                yield self.sim.timeout(cost)
                table.mark_valid(gid)
                if self.tracer is not None:
                    self._trace("fault.done", node=node_id, gid=gid)
            finally:
                done = inflight.pop(key)
                if done is not None:
                    done.succeed()
        finally:
            if sp is not None:
                sp.end(sid)

    def _wait_home_ready(self, gid: int, needed: Dict[int, int],
                         track: Optional[str] = None):
        """Local read at the home: wait for outstanding diffs, if any."""
        hp = self._home(gid)
        if not hp.satisfies(needed):
            ev = self.sim.event()
            self._home_waiters.setdefault(gid, []).append(
                (needed, ev, track))
            yield ev
        yield self.sim.timeout(self.config.protocol_op_us)
        if self.tracer is not None:
            self._trace("fetch.ok", node=self.directory.home_of(gid),
                        gid=gid,
                        snapshot=tuple(sorted(hp.snapshot().items())),
                        needed=tuple(sorted(needed.items())))

    def _fetch_base(self, node_id: int, gid: int, home: int,
                    needed: Dict[int, int],
                    track: Optional[str] = None):
        """Interrupt path: request message, home handler deposits page."""
        self.page_fetches += 1
        done = self.sim.event()
        sp = self.spans
        fid = sp.flow(track, "page_req", "data", gid=gid) \
            if sp is not None and track is not None else None

        def at_home(_msg):
            self.sim.process(
                self._home_page_handler(gid, home, needed, node_id, done,
                                        link=fid, wtrack=track),
                name=f"pagehdl.{gid}")

        yield from self.vmmc.send(node_id, home, PAGE_REQ_BYTES,
                                  kind="page_req", on_delivered=at_home)
        snapshot = yield done
        yield self.sim.timeout(self.config.notify_us)
        if self.tracer is not None:
            self._trace("fetch.ok", node=node_id, gid=gid,
                        snapshot=tuple(sorted(snapshot.items())),
                        needed=tuple(sorted(needed.items())))

    def _home_page_handler(self, gid: int, home: int,
                           needed: Dict[int, int], requester: int, done,
                           link: Optional[int] = None,
                           wtrack: Optional[str] = None):
        """Home-side interrupt handler for a Base-protocol page request.

        If the needed diff has not arrived yet, the request is parked
        and the handler *exits* — it must not hold the node's (serial)
        protocol process while waiting, or the diff-apply handler
        queued behind it could never run.  The home processor knows
        when diffs apply, so the parked request is re-dispatched then.
        """
        node = self.machine.nodes[home]
        hp = self._home(gid)
        sp = self.spans
        htrack = node_track(home)
        entry_delay = True
        while True:
            served = [False]
            hsid = sp.begin("page.home", htrack, bucket="data",
                            link=link, gid=gid) if sp is not None else None

            def body():
                yield self.sim.timeout(self.config.protocol_op_us)
                if hp.satisfies(needed):
                    served[0] = True
                    # The reply carries the version snapshot the home
                    # served, so the requester can attest what it read.
                    snap = hp.snapshot()
                    rfid = sp.flow(htrack, "page_reply", "data",
                                   gid=gid) if sp is not None else None

                    def reply_arrived(_m):
                        if sp is not None:
                            sp.wake(rfid, wtrack)
                        done.succeed(snap)

                    yield from self.vmmc.send(
                        home, requester,
                        self.config.page_size + PAGE_REPLY_EXTRA_BYTES,
                        kind="page_reply",
                        on_delivered=reply_arrived)

            yield from node.handler(body(), entry_delay=entry_delay)
            if sp is not None:
                sp.end(hsid)
            if served[0]:
                return
            ev = self.sim.event()
            self._home_waiters.setdefault(gid, []).append(
                (needed, ev, htrack))
            # The waker's diff_apply flow id arrives as the event value:
            # the re-dispatched activation's span links to it.
            link = yield ev
            entry_delay = False  # re-dispatch, not a fresh interrupt

    def _fetch_rf(self, node_id: int, gid: int, home: int,
                  needed: Dict[int, int],
                  track: Optional[str] = None):
        """Remote-fetch path with the timestamp-check retry loop.

        The loop is bounded by ``fetch_retry_max``: a home copy that
        never reaches the needed versions (lost diff, protocol bug)
        must surface as a diagnostic, not livelock the simulation.
        """
        cfg = self.config
        hp = self._home(gid)
        retries = 0
        while True:
            self.page_fetches += 1
            reply = yield from self.vmmc.fetch(
                node_id, home, cfg.page_size + 64,
                on_served=hp.snapshot, track=track)
            if HomePage.snapshot_satisfies(reply.payload, needed):
                if self.tracer is not None:
                    self._trace(
                        "fetch.ok", node=node_id, gid=gid,
                        snapshot=tuple(sorted(reply.payload.items())),
                        needed=tuple(sorted(needed.items())))
                return
            self.fetch_retries += 1
            retries += 1
            if retries > cfg.fetch_retry_max:
                self._trace("fetch.retry_exhausted", node=node_id,
                            gid=gid, home=home, retries=retries,
                            needed=tuple(sorted(needed.items())),
                            snapshot=tuple(sorted(reply.payload.items())))
                raise SimulationError(
                    f"page {gid}: node {node_id} re-fetched from home "
                    f"{home} {retries} times without versions {needed} "
                    f"appearing (have {reply.payload}); the home copy "
                    f"never advanced (fetch_retry_max="
                    f"{cfg.fetch_retry_max})")
            self._trace("fetch.retry", node=node_id, gid=gid)
            yield self.sim.timeout(cfg.fetch_retry_backoff_us)

    # ----------------------------------------------------------------- write

    def write(self, rank: int, region: SharedRegion, indices,
              runs_per_page: int = 1, bytes_per_page: Optional[int] = None):
        """Write pages; first writes in an interval twin the page."""
        cfg = self.config
        node_id = cfg.node_of(rank)
        table = self.tables[node_id]
        if bytes_per_page is None:
            bytes_per_page = cfg.page_size
        shape = DiffShape(runs=runs_per_page,
                          bytes_modified=max(bytes_per_page,
                                             runs_per_page * 4))
        t0 = self.sim.now
        for idx in indices:
            gid = region.gid(idx)
            access = table.access(gid)
            if access is PageAccess.INVALID:
                yield from self._read_fault(rank, node_id, gid)
                access = table.access(gid)
            first = table.record_write(gid, shape)
            if first:
                # Write fault: open write access; non-home writers also
                # twin the page.  The home writes its authoritative
                # copy in place — HLRC needs no twin or diff there,
                # only the write notice.
                twin = 0.0 if self._ensure_home(gid, node_id) == node_id \
                    else cfg.twin_us
                cost = (cfg.page_fault_us + twin
                        + self.mprotect.protect(node_id, [gid]))
                table.write_faults += 1
                yield self.sim.timeout(cost)
        self.buckets[rank].charge("data", self.sim.now - t0)

    # -------------------------------------------------- intervals & diffs

    def close_interval_timed(self, node_id: int):
        """Generator: close the node's current interval, if it dirtied
        anything, and pay its write-protect cost.

        Returns the interval (its diffs go to ``pending_flush``), or
        None when nothing was dirtied.
        """
        table = self.tables[node_id]
        dirty = table.take_dirty()
        if not dirty:
            return None
        index = self.interval_log.current_index(node_id) + 1
        interval = Interval(node=node_id, index=index,
                            pages=tuple(sorted(dirty)))
        self.interval_log.append(interval)
        self.node_clock[node_id][node_id] = index
        self.pending_flush[node_id].append((index, dirty))
        self._trace("interval.close", node=node_id, index=index,
                    pages=len(dirty), written=interval.pages,
                    clock=self.node_clock[node_id].values)
        if self.invariants is not None:
            self.invariants.on_interval_close(node_id, interval)
        cost = self.mprotect.protect(node_id, interval.pages)
        yield self.sim.timeout(cost)
        return interval

    def flush_pending(self, node_id: int, track: Optional[str] = None):
        """Generator: propagate all closed-but-unflushed diffs to homes.

        Runs on whatever simulated process calls it: the releasing
        process (eager, GeNIMA) or a protocol handler servicing an
        incoming acquire (lazy, Base) — the paper's central contrast.
        ``track`` names the caller's span track so diff flows can be
        linked from it.
        """
        pending, self.pending_flush[node_id] = \
            self.pending_flush[node_id], []
        for index, dirty in pending:
            for gid in sorted(dirty):
                yield from self._flush_page(node_id, gid, dirty[gid],
                                            index, track=track)

    def _flush_page(self, node_id: int, gid: int, shape: DiffShape,
                    index: int, track: Optional[str] = None):
        cfg = self.config
        home = self.directory.home_of(gid)
        sp = self.spans if track is not None else None
        self._trace("diff.flush", node=node_id, gid=gid, home=home,
                    runs=shape.runs, bytes=shape.bytes_modified)
        if home == node_id:
            # Home writes land in place: no twin was made, so there is
            # nothing to compare or send — just publish the version.
            yield self.sim.timeout(cfg.protocol_op_us)
            self._apply_at_home(gid, node_id, index, track=track)
            return
        # Compare the page with its twin.
        yield self.sim.timeout(cfg.diff_scan_us)
        if self.features.direct_diffs and self.features.scatter_gather:
            # Section 5 scatter-gather: all runs ride one message whose
            # packing/unpacking happens on the (slow) NIs — no host
            # interrupt at the home, no message blow-up.
            self.diffs_sent += 1
            sg_us = cfg.ni_sg_per_run_us * shape.runs
            fid = sp.flow(track, "diff", "data", gid=gid) \
                if sp is not None else None

            def sg_landed(_msg):
                self._apply_at_home(gid, node_id, index,
                                    track=nic_track(home), via=fid)

            yield from self.vmmc.send(
                node_id, home, shape.packed_message_bytes + 32,
                kind="diff_sg", on_delivered=sg_landed,
                extra_lanai_us=sg_us)
        elif self.features.direct_diffs:
            # One asynchronous deposit per contiguous run, straight
            # into the home copy; the home processor never knows.
            # The apply is gated by the *last* run landing, so a single
            # flow covers first-send to last-arrival.
            self.diff_runs_sent += shape.runs
            remaining = [shape.runs]
            fid = sp.flow(track, "diff", "data", gid=gid) \
                if sp is not None else None

            def run_landed(_msg):
                remaining[0] -= 1
                if remaining[0] == 0:
                    self._apply_at_home(gid, node_id, index,
                                        track=nic_track(home), via=fid)

            for _run in range(shape.runs):
                yield from self.vmmc.send(
                    node_id, home, shape.run_message_bytes,
                    kind="diff_run", on_delivered=run_landed)
        else:
            # Packed diff: one message, applied by an interrupt handler
            # at the home.
            self.diffs_sent += 1
            yield self.sim.timeout(
                cfg.diff_pack_per_kb_us * shape.bytes_modified / 1024.0)
            fid = sp.flow(track, "diff", "data", gid=gid) \
                if sp is not None else None

            def on_arrival(_msg):
                self.sim.process(
                    self._home_diff_handler(gid, home, node_id, index,
                                            shape, link=fid),
                    name=f"diffhdl.{gid}")

            yield from self.vmmc.send(
                node_id, home, shape.packed_message_bytes + 32,
                kind="diff", on_delivered=on_arrival)

    def _home_diff_handler(self, gid: int, home: int, writer: int,
                           index: int, shape: DiffShape,
                           link: Optional[int] = None):
        node = self.machine.nodes[home]
        sp = self.spans
        htrack = node_track(home)
        apply_us = (self.config.diff_apply_per_kb_us
                    * shape.bytes_modified / 1024.0
                    + self.config.protocol_op_us)

        def body():
            hsid = sp.begin("diff.home", htrack, bucket="data",
                            link=link, gid=gid) if sp is not None else None
            yield self.sim.timeout(apply_us)
            self._apply_at_home(gid, writer, index,
                                track=htrack if sp is not None else None)
            if sp is not None:
                sp.end(hsid)

        yield from node.handler(body())

    def _apply_at_home(self, gid: int, writer: int, index: int,
                       track: Optional[str] = None,
                       via: Optional[int] = None) -> None:
        """Publish a writer's version at the home and release waiters.

        ``track`` is the span track the apply executes on (home NI for
        deposits, home host for interrupt-applied diffs); ``via`` is
        the incoming diff's flow id, acknowledged with a wake so the
        critical path can cross from the flusher to the home.
        """
        hp = self._home(gid)
        self._trace("home.apply", gid=gid, writer=writer, index=index)
        if hp.applied.get(writer, 0) < index:
            hp.applied[writer] = index
        sp = self.spans if track is not None else None
        if sp is not None:
            sp.wake(via, track, gid=gid)
        waiters = self._home_waiters.get(gid)
        if waiters:
            released = []
            still = []
            for needed, ev, wtrack in waiters:
                if hp.satisfies(needed):
                    released.append((ev, wtrack))
                else:
                    still.append((needed, ev, wtrack))
            fid = sp.flow(track, "diff_apply", "data", gid=gid) \
                if sp is not None and released else None
            for ev, wtrack in released:
                if sp is not None:
                    sp.wake(fid, wtrack, gid=gid)
                # The flow id rides the event value: a re-dispatched
                # home page handler links its next span to it.
                ev.succeed(fid)
            if still:
                self._home_waiters[gid] = still
            else:
                del self._home_waiters[gid]

    # ------------------------------------------------------- write notices

    def broadcast_wns(self, node_id: int, interval: Interval,
                      track: Optional[str] = None):
        """Generator: eagerly deposit the interval's write notices into
        every other node's protocol data structures (the DW mechanism).
        All sends are asynchronous small messages; with NI multicast
        (Section 5) the sending NI replicates one posted descriptor."""
        size = WN_BASE_BYTES + WN_PER_PAGE_BYTES * len(interval.pages)
        others = [n for n in range(self.config.nodes) if n != node_id]
        if not others:
            return
        sp = self.spans if track is not None else None
        if self.features.ni_multicast:
            self.wn_messages += 1
            fids = {o: sp.flow(track, "wn", "acqrel", dst=o)
                    for o in others} if sp is not None else {}
            yield from self.vmmc.send_multicast(
                node_id, others, size, kind="wn",
                on_packet_delivered=lambda pkt:
                    self._wn_arrived(pkt.dst, interval,
                                     fid=fids.get(pkt.dst)))
            return
        for other in others:
            self.wn_messages += 1
            fid = sp.flow(track, "wn", "acqrel", dst=other) \
                if sp is not None else None
            yield from self.vmmc.send(
                node_id, other, size, kind="wn",
                on_delivered=lambda _m, o=other, f=fid:
                    self._wn_arrived(o, interval, fid=f))

    def _wn_arrived(self, node_id: int, interval: Interval,
                    fid: Optional[int] = None) -> None:
        rec = self.wn_received[node_id]
        if rec[interval.node] < interval.index:
            rec[interval.node] = interval.index
        waiters = self._wn_waiters[node_id]
        if waiters:
            sp = self.spans
            still = []
            for writer, want, ev, wtrack in waiters:
                if rec[writer] >= want:
                    if sp is not None:
                        sp.wake(fid, wtrack)
                    ev.succeed()
                else:
                    still.append((writer, want, ev, wtrack))
            self._wn_waiters[node_id] = still

    def apply_incoming(self, rank: int, want: Optional[VectorClock]):
        """Generator: make the acquiring node consistent up to ``want``.

        With eager propagation (DW) the broadcast write notices may
        still be in flight; per the paper, flags guarantee an interval's
        invalidations have reached the node before they are applied —
        modelled by waiting on the arrival events.  Then all pending
        notices up to ``want`` are applied with coalesced mprotect.
        """
        if want is None:
            return
        node_id = self.config.node_of(rank)
        if self.features.direct_writes:
            for writer in range(self.config.nodes):
                if writer == node_id:
                    continue
                if self.wn_received[node_id][writer] < want[writer]:
                    ev = self.sim.event()
                    wtrack = rank_track(rank) \
                        if self.spans is not None else None
                    self._wn_waiters[node_id].append(
                        (writer, want[writer], ev, wtrack))
                    yield ev
        have = self.node_clock[node_id]
        if want.dominates(have) and want == have:
            return
        before = have.values
        invalidate = self.tables[node_id].invalidate
        home_of = self.directory.home_of
        to_protect = []
        for writer, interval in self.interval_log.windows(have, want):
            if writer == node_id:
                continue
            for page in interval.pages:
                if invalidate(page, is_home=home_of(page) == node_id):
                    to_protect.append(page)
        self.node_clock[node_id].merge(want)
        self._trace("clock.advance", node=node_id,
                    clock=self.node_clock[node_id].values,
                    want=want.values)
        if self.invariants is not None:
            self.invariants.on_clock_merge(
                node_id, before, self.node_clock[node_id], want)
        cost = self.mprotect.protect(node_id, to_protect)
        if cost > 0:
            yield self.sim.timeout(cost)

    # ------------------------------------------------------------ locks

    def lock(self, rank: int, lock_id: int, bucket: str = "lock"):
        """Generator: acquire a mutual-exclusion lock."""
        t0 = self.sim.now
        node_id = self.config.node_of(rank)
        sp = self.spans
        track = rank_track(rank)
        sid = sp.begin("lock.acquire", track, bucket=bucket,
                       lock=lock_id) if sp is not None else None
        self._trace("lock.acquire", rank=rank, lock=lock_id)
        if self.features.ni_locks:
            ts = yield from self.locks.acquire(node_id, lock_id,
                                               track=track)
        else:
            ts = yield from self.locks.acquire(rank, lock_id)
        yield from self.apply_incoming(rank, ts)
        if sp is not None:
            sp.end(sid)
        self.buckets[rank].charge(bucket, self.sim.now - t0)

    def unlock(self, rank: int, lock_id: int, bucket: str = "lock"):
        """Generator: release a lock (a *release* in the LRC sense)."""
        t0 = self.sim.now
        node_id = self.config.node_of(rank)
        sp = self.spans
        track = rank_track(rank)
        sid = sp.begin("lock.release", track, bucket=bucket,
                       lock=lock_id) if sp is not None else None
        self._trace("lock.release", rank=rank, lock=lock_id)
        feats = self.features
        if feats.ni_locks:
            # Hybrid diff policy: skip the flush when the next waiter
            # recorded at our NI is on this same node.
            next_node = self.locks.pending_waiter_node(node_id, lock_id)
            if next_node != node_id:
                interval = yield from self.close_interval_timed(node_id)
                if interval is not None and feats.direct_writes:
                    yield from self.broadcast_wns(node_id, interval,
                                                  track=track)
                # Snapshot before flushing (the flush yields; intervals
                # closed meanwhile must not ride this timestamp), then
                # flush: with NI locks no incoming acquire ever
                # interrupts the host, so releases are the only place
                # lock-ordered diffs can be propagated (Section 2).
                ts = self.node_clock[node_id].copy()
                yield from self.flush_pending(node_id, track=track)
            else:
                ts = self.node_clock[node_id].copy()
            yield from self.locks.release(node_id, lock_id, ts,
                                          track=track)
        else:
            if feats.direct_writes:
                # Eager write-notice propagation at the release.
                interval = yield from self.close_interval_timed(node_id)
                if interval is not None:
                    yield from self.broadcast_wns(node_id, interval,
                                                  track=track)
                    if feats.direct_diffs:
                        yield from self.flush_pending(node_id,
                                                      track=track)
            yield from self.locks.release(rank, lock_id)
        if sp is not None:
            sp.end(sid)
        self.buckets[rank].charge(bucket, self.sim.now - t0)

    # Flag-style pairwise synchronization (consistency only, no mutual
    # exclusion) — charged to the Acq/Rel bucket.  A release_flag is a
    # *release* in the LRC sense: the interval closes, diffs flush, and
    # a versioned flag word is deposited into every node; acquire_flag
    # waits for the next version and applies the carried timestamp.

    def _flag(self, flag_id: int) -> dict:
        flag = self._flags.get(flag_id)
        if flag is None:
            nodes = self.config.nodes
            flag = {
                "version": 0,
                "node_seen": [0] * nodes,
                "node_ts": [None] * nodes,
                "waiters": [[] for _ in range(nodes)],
                "consumed": {},
            }
            self._flags[flag_id] = flag
        return flag

    def release_flag(self, rank: int, flag_id: int):
        t0 = self.sim.now
        node_id = self.config.node_of(rank)
        flag = self._flag(flag_id)
        sp = self.spans
        track = rank_track(rank)
        sid = sp.begin("flag.release", track, bucket="acqrel",
                       flag=flag_id) if sp is not None else None
        interval = yield from self.close_interval_timed(node_id)
        if interval is not None and self.features.direct_writes:
            yield from self.broadcast_wns(node_id, interval, track=track)
        # Snapshot before flushing (see unlock); flags must then flush
        # eagerly in every mode: there is no later incoming acquire to
        # trigger a lazy flush, and the consumer's page fetch would
        # wait forever on the home version otherwise.
        ts = self.node_clock[node_id].copy()
        yield from self.flush_pending(node_id, track=track)
        flag["version"] += 1
        version = flag["version"]
        fid_local = sp.flow(track, "flag", "acqrel", dst=node_id) \
            if sp is not None else None
        self._flag_set(flag, node_id, version, ts, fid=fid_local)
        for other in range(self.config.nodes):
            if other == node_id:
                continue
            if self.features.direct_writes:
                size = WN_BASE_BYTES
            else:
                have = self.node_clock[other]
                size = WN_BASE_BYTES + WN_PER_PAGE_BYTES * (
                    self.interval_log.count_between(have, ts))
            fid = sp.flow(track, "flag", "acqrel", dst=other) \
                if sp is not None else None
            yield from self.vmmc.send(
                node_id, other, size, kind="flag",
                on_delivered=lambda _m, o=other, v=version, t=ts, f=fid:
                    self._flag_set(flag, o, v, t, fid=f))
        if sp is not None:
            sp.end(sid)
        self.buckets[rank].charge("acqrel", self.sim.now - t0)

    def _flag_set(self, flag: dict, node_id: int, version: int,
                  ts: VectorClock, fid: Optional[int] = None) -> None:
        if flag["node_seen"][node_id] >= version:
            return
        flag["node_seen"][node_id] = version
        flag["node_ts"][node_id] = ts
        waiters = flag["waiters"][node_id]
        if waiters:
            sp = self.spans
            still = []
            for want, ev, wtrack in waiters:
                if version >= want:
                    if sp is not None:
                        sp.wake(fid, wtrack)
                    ev.succeed()
                else:
                    still.append((want, ev, wtrack))
            flag["waiters"][node_id] = still

    def acquire_flag(self, rank: int, flag_id: int):
        """Generator: wait for the next release of ``flag_id`` (relative
        to what this rank has already consumed)."""
        t0 = self.sim.now
        node_id = self.config.node_of(rank)
        flag = self._flag(flag_id)
        sp = self.spans
        track = rank_track(rank)
        sid = sp.begin("flag.acquire", track, bucket="acqrel",
                       flag=flag_id) if sp is not None else None
        want = flag["consumed"].get(rank, 0) + 1
        if flag["node_seen"][node_id] < want:
            ev = self.sim.event()
            flag["waiters"][node_id].append(
                (want, ev, track if sp is not None else None))
            yield ev
        flag["consumed"][rank] = max(flag["consumed"].get(rank, 0), want)
        yield self.sim.timeout(self.config.notify_us)
        ts = flag["node_ts"][node_id]
        yield from self.apply_incoming(rank, ts)
        if sp is not None:
            sp.end(sid)
        self.buckets[rank].charge("acqrel", self.sim.now - t0)

    # ------------------------------------------------------------- barrier

    def barrier(self, rank: int):
        """Generator: global barrier (see BarrierManager)."""
        epoch = self.barriers.epoch_of(rank)
        sp = self.spans
        sid = sp.begin("barrier", rank_track(rank), bucket="barrier",
                       epoch=epoch) if sp is not None else None
        self._trace("barrier.enter", rank=rank, epoch=epoch)
        yield from self.barriers.barrier(rank)
        self._trace("barrier.exit", rank=rank, epoch=epoch)
        if sp is not None:
            sp.end(sid)

    # ------------------------------------------------------------- results

    @property
    def total_interrupts(self) -> int:
        return sum(n.interrupts_taken for n in self.machine.nodes)
