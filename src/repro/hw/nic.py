"""The network interface model.

Reproduces the structure described in Section 3.1 of the paper: each NI
has a programmable (slow) LANai processor, a DMA path to host memory
over the PCI bus, and **three software queues** — one for requests
posted by the host, one for outgoing packets, one for incoming packets.
There is a single FIFO delivery path from the NI into host memory; the
paper identifies control messages getting stuck behind data traffic in
this path as a significant source of performance loss (cured by NI
locks, which are consumed by firmware and never enter it).

The NIC is protocol-agnostic: the communication layer (``repro.vmmc``)
registers *firmware handlers* per message kind; everything else is
delivered to host memory and announced through ``on_delivery``.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..sim import (Event, RateServer, Resource, RunningStat, Simulator,
                   Store, Timeout)
from .config import MachineConfig
from .packet import Message, Packet

__all__ = ["NIC"]

#: Figure-3 bucket charged for firmware service of each message kind.
FW_SPAN_BUCKETS = {"lock_op": "lock", "fetch_req": "data"}


class NIC:
    """One Myrinet-style network interface, owned by one node.

    Three generator processes run the three VMMC queues of Section
    3.1: the send loop DMAs posted descriptors host -> NI over PCI, the
    inject loop runs each outgoing packet through the LANai onto the
    link, and the receive loop serves incoming packets in FIFO order —
    on the LANai for firmware-handled kinds, else over PCI into host
    memory.

    The loops hold the LANai, PCI and link stations inline (request,
    hold a :class:`Timeout`, release in ``finally``), with no delegated
    generator per hold: five holds per packet make this the
    simulator's hottest path.
    """

    def __init__(self, sim: Simulator, config: MachineConfig, node_id: int,
                 network: "Network", metrics=None):
        self.sim = sim
        self.config = config
        self.node_id = node_id

        # The three VMMC software queues.
        self.post_queue = Store(sim, capacity=config.post_queue_len,
                                name=f"ni{node_id}.post")
        self.out_queue = Store(sim, name=f"ni{node_id}.out")
        self.in_queue = Store(sim, name=f"ni{node_id}.in")

        # Shared stations: the PCI/DMA path and the LANai processor.
        self.pci = RateServer(sim, config.pci_bw_mbps,
                              overhead_us=config.dma_setup_us,
                              name=f"ni{node_id}.pci")
        self.lanai = Resource(sim, 1, name=f"ni{node_id}.lanai")
        self.out_link = RateServer(sim, config.link_bw_mbps,
                                   name=f"ni{node_id}.link")

        #: firmware handlers: kind -> fn(packet) called on the LANai for
        #: packets whose message has ``deliver_to_host=False``.  The fn
        #: may return a generator, which runs as part of the receive
        #: loop (holding the LANai), or None.
        self.fw_handlers: Dict[str, Callable[[Packet], Optional[object]]] = {}
        #: called after each packet is DMA'd into host memory.
        self.on_delivery: Optional[Callable[[Packet], None]] = None
        #: called when any packet finishes its life at this NI
        #: (delivered or firmware-consumed) — feeds the monitor.
        self.on_packet_done: Optional[Callable[[Packet], None]] = None
        #: drop-tolerant transport (repro.faults.reliable); installed
        #: by the Machine when fault injection is armed, else None.
        self.reliability = None
        #: optional repro.sim.SpanTracer (Machine.attach_spans); the
        #: recv loop wraps firmware service in a span on this NI's
        #: track, linked to the sender's flow via Message.span_flow.
        self.spans = None

        # Counters.
        self.packets_sent = 0
        self.packets_received = 0
        self.fw_packets = 0

        #: end-to-end packet latency (post -> done).  Owned by the NIC
        #: from construction — ``register_metrics`` binds this same
        #: accumulator into the registry, so deferred (lazy) metric
        #: registration loses no samples.
        self.delivery_latency = RunningStat()
        if metrics is not None:
            self.register_metrics(metrics)

        # The NI keeps no reference to the network, which names it:
        # only the inject loop needs it, to hand packets on.
        self._loops = (
            sim.process(self._send_loop(), name=f"ni{node_id}.send"),
            sim.process(self._inject_loop(network.deliver),
                        name=f"ni{node_id}.inject"),
            sim.process(self._recv_loop(), name=f"ni{node_id}.recv"),
        )

    def close(self) -> None:
        """End of life, once the run is over (``Machine.close``).

        Stops the three loops, which stay parked on this NI's queues
        when the run drains, and drops the handlers and hooks that the
        layers above wired onto it: each names a layer that holds the
        machine, and so this NI again.  Counters and stations stay
        readable; the NI moves no more packets.
        """
        for loop in self._loops:
            loop.close()
        self.fw_handlers.clear()
        self.on_delivery = None
        self.on_packet_done = None

    # ------------------------------------------------------------------ send

    def post(self, message: Message):
        """Host-side descriptor post.

        Returns the put event: it stays pending while the post queue is
        full, which *stalls the posting host processor* — the effect
        behind the Barnes-spatial direct-diff pathology (Section 3.3).
        The caller is responsible for charging ``post_overhead_us`` of
        host CPU time before calling.
        """
        ev = self.post_queue.put(message)
        if ev.triggered:
            message._t_post = self.sim.now
        else:
            ev.add_callback(
                lambda _e: setattr(message, "_t_post", self.sim.now))
        return ev

    def _segment_sizes(self, message: Message):
        sizes = []
        remaining = max(message.size, 1)
        while remaining > 0:
            take = min(remaining, self.config.packet_max)
            sizes.append(take)
            remaining -= take
        return sizes

    def _segment(self, message: Message, fw_origin: bool = False):
        size = max(message.size, 1)
        if size <= self.config.packet_max:
            # Most messages fit one packet: build it without the size list.
            message.packets_remaining = 1
            return [Packet(message=message, size=size, index=0,
                           is_last=True, fw_origin=fw_origin)]
        sizes = self._segment_sizes(message)
        message.packets_remaining = len(sizes)
        return [
            Packet(message=message, size=size, index=i,
                   is_last=(i == len(sizes) - 1), fw_origin=fw_origin)
            for i, size in enumerate(sizes)
        ]

    def _send_loop(self):
        """Pop posted descriptors; DMA each packet's data into NI memory.

        Multicast descriptors are replicated *here*: one host post and
        one source DMA per segment, then one injected packet per
        destination (the Section 5 NI multicast extension).
        """
        sim = self.sim
        pci = self.pci
        station = pci.station
        while True:
            message = yield self.post_queue.get()
            t_enq = getattr(message, "_t_post", sim.now)
            dsts = message.multicast_dsts
            if dsts:
                sizes = self._segment_sizes(message)
                message.packets_remaining = len(sizes) * len(dsts)
                last = len(sizes) - 1
            else:
                pkts = self._segment(message)
                sizes = [pkt.size for pkt in pkts]
            for i, size in enumerate(sizes):
                # Host memory -> NI memory over the PCI bus.
                pci.total_bytes += size
                yield station.request()
                try:
                    yield Timeout(sim, pci.overhead + size / pci.bandwidth)
                finally:
                    station.release()
                if dsts:
                    # One copy per destination, each built as it queues.
                    copies = (Packet(message=message, size=size, index=i,
                                     is_last=(i == last), dst_node=dst)
                              for dst in dsts)
                else:
                    copies = (pkts[i],)
                for pkt in copies:
                    pkt.t_enqueue = t_enq
                    pkt.t_src_done = sim.now
                    yield self.out_queue.put(pkt)
            if message.on_sent is not None:
                message.on_sent(message)

    def fw_send(self, message: Message, read_host_bytes: bool = False):
        """Inject a firmware-originated message (reply, lock traffic).

        Skips the host post queue entirely.  When ``read_host_bytes``
        the data must first be DMA'd out of host memory (remote-fetch
        replies); otherwise the payload already lives in NI memory
        (lock grants, forwards).
        Returns the Process that queues the packets for injection (no
        caller awaits it).
        """
        sim = self.sim
        pci = self.pci
        station = pci.station

        def run():
            t_enq = sim.now
            for pkt in self._segment(message, fw_origin=True):
                pkt.t_enqueue = t_enq
                if read_host_bytes:
                    size = pkt.size
                    pci.total_bytes += size
                    yield station.request()
                    try:
                        yield Timeout(sim, pci.overhead + size / pci.bandwidth)
                    finally:
                        station.release()
                pkt.t_src_done = sim.now
                yield self.out_queue.put(pkt)

        return self.sim.process(run(), name=f"ni{self.node_id}.fw_send")

    def _inject_loop(self, deliver):
        """LANai processing + injection into the outgoing link; each
        injected packet goes to ``deliver`` (``Network.deliver``)."""
        cfg = self.config
        sim = self.sim
        lanai = self.lanai
        link = self.out_link
        station = link.station
        while True:
            pkt = yield self.out_queue.get()
            if self.reliability is not None:
                self.reliability.on_inject(self, pkt)
            yield lanai.request()
            try:
                yield Timeout(sim, cfg.ni_proc_us
                              + pkt.message.extra_src_lanai_us)
            finally:
                lanai.release()
            size = pkt.size
            link.total_bytes += size
            yield station.request()
            try:
                yield Timeout(sim, link.overhead + size / link.bandwidth)
            finally:
                station.release()
            pkt.t_injected = sim.now
            self.packets_sent += 1
            deliver(pkt)

    # --------------------------------------------------------------- receive

    def arrive(self, ev: Event) -> None:
        """Arrival callback: ``ev`` fires when the last word of the
        packet it carries reaches this NI (see ``Network.deliver``)."""
        pkt = ev.value
        pkt.t_net_arrival = self.sim.now
        self.packets_received += 1
        self.in_queue.put_nowait(pkt)

    def _recv_loop(self):
        """One FIFO service path for all incoming packets.

        Firmware-handled kinds (NI locks, remote-fetch requests) are
        consumed here without touching host memory; everything else is
        DMA'd into the host through the shared PCI path, in order —
        which is exactly how a small control message gets stuck behind
        a stream of data packets.
        """
        cfg = self.config
        sim = self.sim
        lanai = self.lanai
        pci = self.pci
        station = pci.station
        while True:
            pkt = yield self.in_queue.get()
            yield lanai.request()
            try:
                yield Timeout(sim, cfg.ni_proc_us
                              + pkt.message.extra_dst_lanai_us)
            finally:
                lanai.release()
            if self.reliability is not None \
                    and not self.reliability.accept(self, pkt):
                # A copy this NI already processed (injected duplicate
                # or spurious retransmission): examined and discarded
                # on the LANai, never touches the host.
                continue
            if not pkt.message.deliver_to_host:
                handler = self.fw_handlers.get(pkt.kind)
                if handler is None:
                    raise LookupError(
                        f"no firmware handler for kind {pkt.kind!r} "
                        f"at node {self.node_id}")
                sp = self.spans
                fsid = sp.begin(
                    "ni.fw", f"ni{self.node_id}",
                    bucket=FW_SPAN_BUCKETS.get(pkt.kind, "data"),
                    link=pkt.message.span_flow, kind=pkt.kind) \
                    if sp is not None else None
                result = handler(pkt)
                if result is not None:
                    # Handler needs LANai time (e.g. lock-queue ops).
                    yield from result
                pkt.t_delivered = sim.now
                self.fw_packets += 1
                if sp is not None:
                    sp.end(fsid)
                self._finish(pkt)
            else:
                size = pkt.size
                pci.total_bytes += size
                yield station.request()
                try:
                    yield Timeout(sim, pci.overhead + size / pci.bandwidth)
                finally:
                    station.release()
                pkt.t_delivered = sim.now
                if self.on_delivery is not None:
                    self.on_delivery(pkt)
                self._finish(pkt)

    def queue_depth(self) -> int:
        """Packets/descriptors queued at this NI right now, across all
        three stages (post, inject, receive) — the telemetry pipeline's
        per-node backpressure probe."""
        return (len(self.post_queue) + len(self.out_queue)
                + len(self.in_queue))

    def register_metrics(self, metrics) -> None:
        """Join a MetricsRegistry: counters as gauges, plus the
        NIC-owned latency RunningStat (bound, not reset)."""
        prefix = f"nic.{self.node_id}"
        metrics.register_gauges(prefix, self, "packets_sent",
                                "packets_received", "fw_packets")
        metrics.gauge(f"{prefix}.lanai_busy_us", self.lanai.sample_busy)
        metrics.gauge(f"{prefix}.pci_busy_us", self.pci.sample_busy)
        metrics.gauge(f"{prefix}.link_busy_us", self.out_link.sample_busy)
        metrics.register_stat(f"{prefix}.delivery_latency_us",
                              self.delivery_latency)

    def _finish(self, pkt: Packet) -> None:
        if pkt.t_enqueue is not None:
            self.delivery_latency.add(self.sim.now - pkt.t_enqueue)
        if self.reliability is not None:
            self.reliability.packet_done(self, pkt)
        if self.on_packet_done is not None:
            self.on_packet_done(pkt)
        msg = pkt.message
        if msg.on_packet_delivered is not None:
            msg.on_packet_delivered(pkt)
        msg.packets_remaining -= 1
        if msg.packets_remaining == 0 and msg.on_delivered is not None:
            msg.on_delivered(msg)
