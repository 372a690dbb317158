"""Drop-tolerant transport under VMMC: seq/ack/timeout/retransmit.

Stock VMMC assumes a reliable, per-source-ordered fabric; once the
fault injector is armed that assumption is gone, so this layer adds the
classic reliability triad at the NI boundary, covering *every* tracked
message — remote deposits, multicasts, remote-fetch requests and
replies, and the NI lock chain (acquire/forward/grant re-issue happens
here, as retransmission of the lock-op control messages):

* **per-channel sequence numbers** — each (src, dst) channel numbers
  its messages; a packet's wire-unique name is ``(src, msg_id,
  index)`` and the channel ordinal is carried in the ``retx.*`` trace
  events for ordering diagnostics.
* **receiver dedup + ack** — the receiving NI examines each packet on
  the LANai, discards copies it has already processed (injected
  duplicates or spurious retransmissions), and acks a message back to
  the sending NI once all of its packets have been processed for this
  destination.  A duplicate of a completed message is re-acked: that
  is how a lost ack is recovered.
* **sender timeout/retransmit** — a watchdog per (message,
  destination) retransmits all of the message's packets if no ack
  arrives within the timeout, doubling the timeout each attempt up to
  ``retx_timeout_max_us``.  After ``retx_max`` attempts it raises
  :class:`~repro.sim.SimulationError` — a total-loss link fails fast
  with a diagnostic instead of hanging the simulation.

Both sides keep their dedup state on the message itself
(``Message.retx_sends``, ``Message.retx_recvs``): every copy of a
packet names its message, so a late copy still finds it, and the state
is freed with the message's last copy instead of growing with the run.

Retransmitted packets are re-injected from NI memory (the send buffer
is retained until the ack, so no host DMA is repeated) and pay the
normal LANai + link costs.  Ack packets (kind ``"retx_ack"``) are
firmware-consumed, never tracked and never acked; a dropped ack is
recovered by the sender's retransmit and the receiver's re-ack.

This module maps onto the paper's own robustness argument: the
remote-fetch timestamp-check retry loop (Section 2) already re-issues
fetches until the home copy is current; the transport below it re-issues
the *packets* until the fabric delivers them.
"""

from __future__ import annotations

from typing import Dict, Set, Tuple

from ..hw.config import FaultConfig
from ..hw.packet import Message, Packet
from ..sim import SimulationError

__all__ = ["ReliabilityLayer", "ACK_KIND", "ACK_BYTES"]

ACK_KIND = "retx_ack"
ACK_BYTES = 16


class _SendState:
    """Sender-side book-keeping for one (message, destination)."""

    __slots__ = ("msg", "dst", "channel_seq", "expected",
                 "pkts", "acked", "acked_event", "attempts", "retx_fid")

    def __init__(self, msg: Message, dst: int, channel_seq: int,
                 expected: int, acked_event):
        self.msg = msg
        self.dst = dst
        self.channel_seq = channel_seq
        self.expected = expected
        #: index -> (size, is_last), filled as packets are injected.
        self.pkts: Dict[int, Tuple[int, bool]] = {}
        self.acked = False
        self.acked_event = acked_event
        self.attempts = 0
        #: span flow id of the previous retransmission attempt: each
        #: attempt's span links to it, chaining the retries causally.
        self.retx_fid = None


class _RecvState:
    """Receiver-side book-keeping for one (source, message)."""

    __slots__ = ("expected", "seen", "processed")

    def __init__(self, expected: int):
        self.expected = expected
        self.seen: Set[int] = set()
        self.processed = 0


class _Finished:
    """Per-message entry of a finished (message, node): acked on the
    sender side, complete on the receiver side.

    It holds nothing, so the send state and the packet set are freed;
    while a copy of the message lives, a late retransmitted copy is
    not tracked again and a late duplicate is still discarded and, for
    data, re-acked.
    """

    __slots__ = ()


#: The one entry every finished message shares.
_FINISHED = _Finished()


class ReliabilityLayer:
    """Machine-wide reliable transport, armed together with faults."""

    def __init__(self, machine, msg_ids=None):
        from .injector import MsgIds
        self.sim = machine.sim
        self.config = machine.config
        self.fcfg: FaultConfig = machine.config.faults
        #: optional repro.sim.Tracer receiving ``retx.*`` events.
        self.tracer = None
        #: optional repro.sim.SpanTracer (Machine.attach_spans): each
        #: retransmission attempt becomes a span on the sender's NI
        #: track, chained to the previous attempt by a retx_chain flow.
        self.spans = None
        #: dense trace names for messages, shared with the injector so
        #: the sanitizer can join fault.* and retx.* streams.
        self.msg_ids = msg_ids if msg_ids is not None else MsgIds()
        #: unacked sends, for the ack to find: (src_node, msg_id,
        #: dst) -> _SendState.  The message's ``retx_sends`` maps dst
        #: to the same state, or to _FINISHED once acked; its
        #: ``retx_recvs`` maps the receiving node to a _RecvState, or
        #: to _FINISHED once complete.
        self._sends: Dict[Tuple[int, int, int], _SendState] = {}
        #: per-channel message ordinals: (src, dst) -> next seq.
        self._channel_seq: Dict[Tuple[int, int], int] = {}
        for nic in machine.nics:
            nic.reliability = self
            nic.fw_handlers[ACK_KIND] = self._fw_ack
        # Counters.
        self.retransmits = 0
        self.retx_timeouts = 0
        self.acks_sent = 0
        self.acks_received = 0
        self.dup_discards = 0

    # ------------------------------------------------------------- sender

    def on_inject(self, nic, pkt: Packet) -> None:
        """Called by the NIC as each packet leaves for the network."""
        if pkt.kind == ACK_KIND:
            return
        msg = pkt.message
        dst = pkt.dst
        sends = msg.retx_sends
        if sends is None:
            sends = msg.retx_sends = {}
        state = sends.get(dst)
        if state is None:
            channel = (nic.node_id, dst)
            seq = self._channel_seq.get(channel, 0)
            self._channel_seq[channel] = seq + 1
            state = _SendState(msg, dst, seq,
                               self.config.packets_for(msg.size),
                               self.sim.event())
            sends[dst] = state
            self._sends[nic.node_id, msg.msg_id, dst] = state
            self.sim.process(self._watchdog(nic, state),
                             name=f"retx.{nic.node_id}.{msg.msg_id}")
        elif state is _FINISHED:
            # A retransmitted copy leaving after the ack: nothing left
            # to retransmit it for.
            return
        state.pkts[pkt.index] = (pkt.size, pkt.is_last)

    def _watchdog(self, nic, state: _SendState):
        f = self.fcfg
        rto = f.retx_timeout_us
        while True:
            timer = self.sim.timeout(rto)
            yield self.sim.any_of([state.acked_event, timer])
            if state.acked:
                return
            state.attempts += 1
            if state.attempts > f.retx_max:
                msg = state.msg
                if self.tracer is not None:
                    self.tracer.append(self.sim.now, "retx.exhausted", {
                        "node": nic.node_id,
                        "msg": self.msg_ids.map(msg.msg_id),
                        "dst": state.dst, "kind": msg.kind,
                        "seq": state.channel_seq, "attempts": f.retx_max})
                raise SimulationError(
                    f"message {msg.msg_id} ({msg.kind!r}, "
                    f"{nic.node_id}->{state.dst}) still unacked after "
                    f"{f.retx_max} retransmissions: link lossy beyond "
                    f"recovery or fabric partitioned")
            self.retx_timeouts += 1
            if self.tracer is not None:
                self.tracer.append(self.sim.now, "retx.timeout", {
                    "node": nic.node_id,
                    "msg": self.msg_ids.map(state.msg.msg_id),
                    "dst": state.dst, "seq": state.channel_seq,
                    "attempt": state.attempts, "rto": rto})
            sp = self.spans
            rsid = sp.begin(
                "retx.resend", f"ni{nic.node_id}", bucket="data",
                link=state.retx_fid,
                msg=self.msg_ids.map(state.msg.msg_id),
                dst=state.dst, attempt=state.attempts) \
                if sp is not None else None
            # Go-back-all: re-inject every packet of the message from
            # NI memory; the receiver discards what it already has.
            for index in sorted(state.pkts):
                size, is_last = state.pkts[index]
                copy = Packet(message=state.msg, size=size, index=index,
                              is_last=is_last, fw_origin=True,
                              dst_node=state.dst)
                copy.t_enqueue = self.sim.now
                copy.t_src_done = self.sim.now
                self.retransmits += 1
                if self.tracer is not None:
                    self.tracer.append(self.sim.now, "retx.resend", {
                        "node": nic.node_id,
                        "msg": self.msg_ids.map(state.msg.msg_id),
                        "dst": state.dst, "idx": index,
                        "seq": state.channel_seq,
                        "attempt": state.attempts})
                yield nic.out_queue.put(copy)
            if sp is not None:
                state.retx_fid = sp.flow_from(rsid, "retx_chain", "data")
                sp.end(rsid)
            rto = min(rto * 2.0, f.retx_timeout_max_us)

    def _fw_ack(self, pkt: Packet) -> None:
        """Sender-NI firmware: an ack arrived, stop the watchdog."""
        acked_msg, acker = pkt.message.payload
        self.acks_received += 1
        if self.tracer is not None:
            self.tracer.append(self.sim.now, "retx.ack", {
                "node": pkt.dst, "msg": self.msg_ids.map(acked_msg),
                "dst": acker})
        state = self._sends.pop((pkt.dst, acked_msg, acker), None)
        if state is not None:
            state.acked = True
            # The watchdog holds the state until it wakes; the message
            # forgets it now, which also breaks the message <-> state
            # cycle.
            state.msg.retx_sends[state.dst] = _FINISHED
            state.acked_event.succeed()

    # ----------------------------------------------------------- receiver

    def accept(self, nic, pkt: Packet) -> bool:
        """Examine an arriving packet on the receiving LANai.

        Returns False for a copy that was already processed here (the
        recv loop discards it without touching the host); re-acks the
        message if the sender evidently missed the first ack.
        """
        msg = pkt.message
        recvs = msg.retx_recvs
        if recvs is None:
            recvs = msg.retx_recvs = {}
        node = nic.node_id
        state = recvs.get(node)
        if state is _FINISHED or (state is not None
                                  and pkt.index in state.seen):
            self.dup_discards += 1
            if self.tracer is not None:
                self.tracer.append(self.sim.now, "retx.dup_discard", {
                    "node": nic.node_id, "src": pkt.src,
                    "msg": self.msg_ids.map(msg.msg_id),
                    "idx": pkt.index, "kind": pkt.kind})
            if pkt.kind != ACK_KIND and state is _FINISHED:
                self._send_ack(nic, pkt)
            return False
        if state is None:
            state = recvs[node] = _RecvState(
                self.config.packets_for(msg.size))
        state.seen.add(pkt.index)
        if pkt.kind == ACK_KIND and len(state.seen) == state.expected:
            # Acks are firmware-consumed, never processed: an ack is
            # complete once all its packets are seen.
            recvs[node] = _FINISHED
        return True

    def packet_done(self, nic, pkt: Packet) -> None:
        """Called by the NIC once a packet is fully processed here."""
        if pkt.kind == ACK_KIND:
            return
        recvs = pkt.message.retx_recvs
        state = recvs[nic.node_id]
        state.processed += 1
        if state.processed == state.expected:
            recvs[nic.node_id] = _FINISHED
            self._send_ack(nic, pkt)

    def _send_ack(self, nic, pkt: Packet) -> None:
        self.acks_sent += 1
        ack = Message(src=nic.node_id, dst=pkt.src, size=ACK_BYTES,
                      kind=ACK_KIND, deliver_to_host=False,
                      payload=(pkt.message.msg_id, nic.node_id))
        nic.fw_send(ack)

    # ------------------------------------------------------------ results

    def outstanding_by_node(self) -> list:
        """Unacked send states per source node, in one pass over the
        sender table (the ``retx.outstanding`` probe)."""
        out = [0] * self.config.nodes
        for src, _msg, _dst in self._sends:
            out[src] += 1
        return out

    #: the counters, exported as ``retx.<name>`` gauges and as
    #: ``RunResult.stats`` entries.
    COUNTERS = ("retransmits", "retx_timeouts", "acks_sent",
                "acks_received", "dup_discards")

    def register_metrics(self, metrics) -> None:
        """Export the counters into a MetricsRegistry, and the
        per-node outstanding sends as a sampled probe."""
        metrics.register_gauges("retx", self, *self.COUNTERS)
        metrics.register_probe("retx.outstanding", "gauge", self,
                               ReliabilityLayer.outstanding_by_node)
