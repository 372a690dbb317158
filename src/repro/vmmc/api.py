"""VMMC: protected, reliable, user-level communication (Section 3.1).

The layer the paper builds on plus the two extensions it adds:

* **remote deposit** (stock VMMC) — explicit sends whose data lands at
  specified destination virtual addresses without involving the remote
  host processor; there is *no receive operation*.
* **remote fetch** (extension, in NI firmware) — pull contiguous data
  from exported remote memory; ~110 us for a 4 KB page.
* **NI locks** (extension, :mod:`repro.vmmc.locks`) — mutual exclusion
  queues maintained entirely by the NIs.

All host-side operations are generators meant to be driven from a
simulated process (``yield from vmmc.send(...)``).  Sends are
asynchronous: the sender pays only the ~2 us post overhead unless the
NI post queue is full, in which case the post blocks until it drains —
a first-order effect in the paper's analysis.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from ..hw import Machine, Message
from ..hw.packet import Packet
from ..sim.spans import nic_track

__all__ = ["VMMC", "ExportTable"]


class ExportTable:
    """Which (node, region) pairs are exported for remote access.

    The paper's scalability point for remote fetch (Section 2): with
    deposit-only page transfer every node must export *all* shared
    pages; with remote fetch each node exports only the pages it homes.
    This table lets tests assert that property.
    """

    def __init__(self):
        self._exports: Dict[int, set] = {}

    def export(self, node: int, region: Any) -> None:
        self._exports.setdefault(node, set()).add(region)

    def is_exported(self, node: int, region: Any) -> bool:
        return region in self._exports.get(node, set())


class VMMC:
    """One communication-layer instance spanning the whole machine."""

    #: message kinds consumed by NI firmware (never delivered to host).
    FW_KINDS = ("fetch_req", "lock_op")

    def __init__(self, machine: Machine, spans=None):
        self.machine = machine
        self.sim = machine.sim
        self.config = machine.config
        #: optional repro.sim.SpanTracer for causal fetch spans.
        self.spans = spans
        self.exports = ExportTable()
        # Wire the firmware fetch handler on every NIC.
        for nic in machine.nics:
            nic.fw_handlers["fetch_req"] = self._fw_fetch_req
        # Counters.
        self.messages_sent = 0
        self.bytes_sent = 0
        self.fetches = 0
        machine.metrics.register_gauges("vmmc", self, "messages_sent",
                                        "bytes_sent", "fetches")

    # ------------------------------------------------------------------ send

    def send(self, src: int, dst: int, size: int, kind: str = "deposit",
             payload: Any = None, await_delivery: bool = False,
             on_delivered: Optional[Callable[[Message], None]] = None,
             extra_lanai_us: float = 0.0):
        """Generator: remote deposit of ``size`` bytes from ``src`` to
        ``dst`` (node ids).

        Asynchronous by default: completes once the descriptor is
        accepted by the NI (post overhead ~2 us; longer only when the
        post queue is full).  ``await_delivery=True`` turns it into a
        synchronous send that completes when the data has been DMA'd
        into the destination host's memory.

        Returns the :class:`Message`.
        """
        cfg = self.config
        self.messages_sent += 1
        self.bytes_sent += size
        if src == dst:
            # In-node deposit: a memcpy, no NI involvement.
            yield self.sim.timeout(cfg.post_overhead_us
                                   + size / cfg.host_memcpy_mbps)
            msg = Message(src=src, dst=dst, size=size, kind=kind,
                          payload=payload)
            if on_delivered is not None:
                on_delivered(msg)
            if await_delivery:
                # Synchronous deposits pay the completion notification
                # on the local path too, matching the remote path.
                yield self.sim.timeout(cfg.notify_us)
            return msg

        msg = Message(src=src, dst=dst, size=size, kind=kind,
                      payload=payload,
                      deliver_to_host=kind not in self.FW_KINDS,
                      on_delivered=on_delivered,
                      extra_src_lanai_us=extra_lanai_us,
                      extra_dst_lanai_us=extra_lanai_us)
        if await_delivery:
            # Only a synchronous send waits on delivery; an async one
            # builds no event that would fire with nobody waiting.
            delivered = self.sim.event()

            def _delivered(m):
                if on_delivered is not None:
                    on_delivered(m)
                # No value: the event keeping the message would close
                # a reference cycle through this callback.
                delivered.succeed()

            msg.on_delivered = _delivered
        # Post overhead on the host CPU, then block until the post
        # queue accepts the descriptor.
        yield self.sim.timeout(cfg.post_overhead_us)
        yield self.machine.nics[src].post(msg)
        if await_delivery:
            yield delivered
            yield self.sim.timeout(cfg.notify_us)
        return msg

    def send_multicast(self, src: int, dsts, size: int,
                       kind: str = "deposit", payload: Any = None,
                       extra_src_lanai_us: float = 0.0,
                       on_packet_delivered=None, on_delivered=None):
        """Generator: one post, one source DMA, one packet per
        destination — the Section 5 NI multicast/broadcast extension.

        ``on_packet_delivered(packet)`` fires as each copy lands
        (``packet.dst`` identifies the receiver); ``on_delivered`` when
        the last copy has landed.
        """
        dsts = tuple(d for d in dsts if d != src)
        if not dsts:
            raise ValueError("multicast needs at least one destination")
        # Accounting is per destination packet stream (the convention
        # documented in repro.sim.stats): a multicast to k destinations
        # counts like k unicast sends even though only one descriptor
        # is posted and one source DMA happens.
        self.messages_sent += len(dsts)
        self.bytes_sent += size * len(dsts)
        msg = Message(src=src, dst=dsts[0], size=size, kind=kind,
                      payload=payload, multicast_dsts=dsts,
                      extra_src_lanai_us=extra_src_lanai_us,
                      on_delivered=on_delivered,
                      on_packet_delivered=on_packet_delivered)
        yield self.sim.timeout(self.config.post_overhead_us)
        yield self.machine.nics[src].post(msg)
        return msg

    # ----------------------------------------------------------------- fetch

    def fetch(self, src: int, dst: int, size: int,
              payload: Any = None,
              on_served: Optional[Callable[[], Any]] = None,
              track: Optional[str] = None):
        """Generator: remote fetch of ``size`` bytes of ``dst``'s memory
        into ``src``'s memory (the extension of Section 2).

        The request is a one-word message consumed by the destination
        NI's firmware, which DMAs the data out of host memory and sends
        it back — no destination host processor involvement.  Completes
        when the reply lands at ``src``.  ``on_served`` (if given) runs
        at the destination NI at service time and its return value is
        attached to the reply as ``payload`` — protocol layers use it to
        snapshot e.g. the page's timestamp at the moment it was read.

        ``track`` names the caller's span track: when spans are armed
        the fetch is recorded as a span with a request flow into the
        serving NI and a reply flow back.

        Returns the reply :class:`Message`.
        """
        if src == dst:
            raise ValueError("fetch from own node must be handled locally")
        self.fetches += 1
        done = self.sim.event()
        sp = self.spans if track is not None else None
        sid = sp.begin("vmmc.fetch", track, bucket="data",
                       dst=dst) if sp is not None else None
        fid = sp.flow_from(sid, "fetch_req", "data") \
            if sp is not None else None
        request = Message(
            src=src, dst=dst, size=8, kind="fetch_req",
            deliver_to_host=False, span_flow=fid,
            payload=_FetchState(size=size, requester=src, user=payload,
                                on_served=on_served, done=done,
                                track=track),
        )
        yield self.sim.timeout(self.config.post_overhead_us)
        yield self.machine.nics[src].post(request)
        reply = yield done
        yield self.sim.timeout(self.config.notify_us)
        if sp is not None:
            sp.end(sid)
        return reply

    def _fw_fetch_req(self, pkt: Packet):
        """Destination-NI firmware service of a remote fetch request.

        Runs on the LANai: a short setup, then an autonomous DMA read of
        host memory and a firmware-originated reply.  The recv loop is
        only held for the setup, so back-to-back fetches pipeline.
        """
        nic = self.machine.nics[pkt.dst]
        state: _FetchState = pkt.message.payload

        def serve():
            served_value = state.on_served() if state.on_served else None
            sp = self.spans if state.track is not None else None
            # The recv loop's ni.fw span is still open here, so the
            # reply flow's source is the firmware service itself.
            rfid = sp.flow(nic_track(pkt.dst), "fetch_reply", "data") \
                if sp is not None else None
            reply = Message(
                src=pkt.dst, dst=state.requester, size=state.size,
                kind="fetch_reply", payload=served_value,
                on_delivered=_FetchReplied(state.done, sp, rfid,
                                           state.track),
            )
            nic.fw_send(reply, read_host_bytes=True)

        def setup():
            yield self.sim.timeout(self.config.ni_fetch_setup_us)
            serve()

        return setup()


class _FetchReplied:
    """``on_delivered`` of a fetch reply: wakes the fetcher's span and
    fires its done event with the reply.

    A slotted callable, not a closure: the done event keeps the reply
    as its value, so a callback still naming the event would close a
    reference cycle through the reply.  It drops its references once
    it has fired.
    """

    __slots__ = ("done", "spans", "flow", "track")

    def __init__(self, done, spans, flow, track):
        self.done = done
        self.spans = spans
        self.flow = flow
        self.track = track

    def __call__(self, reply: Message) -> None:
        done = self.done
        if self.spans is not None:
            self.spans.wake(self.flow, self.track)
        self.done = self.spans = None
        done.succeed(reply)


class _FetchState:
    """Book-keeping carried by a fetch request packet."""

    __slots__ = ("size", "requester", "user", "on_served", "done",
                 "track")

    def __init__(self, size, requester, user, on_served, done,
                 track=None):
        self.size = size
        self.requester = requester
        self.user = user
        self.on_served = on_served
        self.done = done
        self.track = track
