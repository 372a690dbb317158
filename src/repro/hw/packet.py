"""Network packets and logical messages.

A :class:`Message` is one logical VMMC operation (a deposit, a fetch
request, a lock operation...).  The sending NI segments it into
:class:`Packet` s of at most ``packet_max`` bytes; packets carry stage
timestamps that the firmware performance monitor turns into the
contention ratios of Tables 3 and 4.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

__all__ = ["Message", "Packet", "SMALL_MESSAGE_BYTES"]

#: The paper's monitor splits statistics at 256 bytes.
SMALL_MESSAGE_BYTES = 256

_seq = itertools.count()


@dataclass
class Message:
    """One logical communication-layer operation.

    ``kind`` selects the handling at the destination NI:

    * ``"deposit"``      — DMA into host memory, then notify (no host
                           processor involvement beyond the DMA).
    * ``"fetch_req"``    — firmware reads ``reply_size`` bytes from the
                           destination host's memory and sends them back.
    * ``"fetch_reply"``  — data returning to the fetcher; delivered to
                           host memory like a deposit.
    * ``"lock_op"``      — NI-firmware lock operation; never enters the
                           host-delivery path.

    A message with ``multicast_dsts`` is replicated by the *sending* NI
    (one host post, one source DMA, one injected packet per
    destination) — the NI multicast extension of Section 5.
    ``extra_src_lanai_us``/``extra_dst_lanai_us`` model additional NI
    processing per packet (the scatter-gather extension packs/unpacks
    runs on the LANai).
    """

    src: int
    dst: int
    size: int
    kind: str = "deposit"
    payload: Any = None
    multicast_dsts: Optional[tuple] = None
    extra_src_lanai_us: float = 0.0
    extra_dst_lanai_us: float = 0.0
    #: False for messages consumed by destination NI firmware.
    deliver_to_host: bool = True
    #: Fired (with the message) when the *last* packet is delivered to
    #: host memory at the destination (or firmware-handled).
    on_delivered: Optional[Callable[["Message"], None]] = None
    #: Fired per packet as it finishes at its destination — multicast
    #: senders use this for per-node arrival notification.
    on_packet_delivered: Optional[Callable[["Packet"], None]] = None
    #: Fired at the source when the message's last packet has left the
    #: sending host's memory (send-buffer reusable).
    on_sent: Optional[Callable[["Message"], None]] = None
    #: Causal flow id (repro.sim.spans) recorded by the sender; the
    #: destination NI links its firmware-service span to it.  Pure
    #: observability — never affects scheduling.
    span_flow: Optional[int] = None
    msg_id: int = field(default_factory=lambda: next(_seq))
    packets_remaining: int = 0
    #: Reliable-transport book-keeping (repro.faults.reliable), set on
    #: first use: destination -> send state, and receiving node ->
    #: receive state.  Kept on the message so it is freed with the
    #: message's last copy.
    retx_sends: Optional[dict] = field(default=None, init=False,
                                       repr=False, compare=False)
    retx_recvs: Optional[dict] = field(default=None, init=False,
                                       repr=False, compare=False)

    def __post_init__(self):
        if self.size < 0:
            raise ValueError("message size must be >= 0")
        if self.multicast_dsts is not None:
            if self.src in self.multicast_dsts:
                raise ValueError("multicast must not include the sender")
            if len(set(self.multicast_dsts)) != len(self.multicast_dsts):
                raise ValueError("duplicate multicast destinations")
            return
        if self.src == self.dst and self.kind not in ("deposit",):
            # Loopback is legal only for plain deposits; protocol layers
            # shortcut same-node operations above VMMC.
            raise ValueError(f"loopback not supported for kind={self.kind!r}")


@dataclass
class Packet:
    """One wire packet (<= packet_max bytes) of a message."""

    message: Message
    size: int
    index: int           # position within the message
    is_last: bool
    fw_origin: bool = False  # injected by NI firmware (skips post queue)
    #: destination override for multicast copies (None = message.dst).
    dst_node: Optional[int] = None
    pkt_id: int = field(default_factory=lambda: next(_seq))

    # -- stage timestamps (PerfMonitor.record derives Section 3.1 latencies)
    t_enqueue: float = 0.0      # request visible in NI request queue
    t_src_done: float = 0.0     # data DMA'd into sending NI memory
    t_injected: float = 0.0     # last word pushed into the network
    t_net_arrival: float = 0.0  # last word at the receiving NI
    t_delivered: float = 0.0    # DMA into destination host memory done

    @property
    def kind(self) -> str:
        return self.message.kind

    @property
    def src(self) -> int:
        return self.message.src

    @property
    def dst(self) -> int:
        return self.message.dst if self.dst_node is None else self.dst_node
