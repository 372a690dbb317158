"""Deterministic fault injection at the Network/NIC boundary.

The seed state models the fabric of the paper's testbed as a perfect
crossbar: constant latency, no loss, no duplication, per-source order
preserved.  Real user-level NIs enjoy none of those guarantees, and the
GeNIMA mechanisms (the stale-fetch retry loop, the NI lock chain) were
designed to survive an imperfect fabric.  :class:`FaultInjector` wraps
:meth:`repro.hw.network.Network.deliver` and, per packet, may

* **drop** it (probability ``loss``),
* **duplicate** it (probability ``dup`` — a second copy follows one
  wire latency behind),
* **delay** it by a bounded extra amount (probability ``reorder``,
  uniform in ``[0, reorder_window_us)`` — enough to overtake later
  packets from the same source), or
* **jitter** its latency (uniform in ``[0, jitter_us)`` on every
  packet).

Every decision is drawn from a named per-link
``random.Random(f"{seed}:{src}->{dst}")`` stream, held as a window of
its next draws (:class:`repro.sim.SeededStream`) rather than as a
generator: a 256-node fabric has thousands of links, each drawing a
few times per run.  Because the
simulation itself is deterministic, the per-link packet order is
deterministic, so identical seeds give byte-identical traces — the
property the determinism regression tests assert.

Injected faults are announced on the attached tracer as ``fault.*``
events; the sanitizer's fault-recovery check replays them against the
``retx.*`` stream of :mod:`repro.faults.reliable` to prove that no
dropped packet's message was silently lost.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Tuple

from ..hw.config import FaultConfig, MachineConfig
from ..hw.packet import Packet
from ..sim import SeededStream, Timeout

__all__ = ["FaultInjector", "MsgIds"]


class MsgIds:
    """Dense per-run message ids for trace events.

    ``Message.msg_id`` is drawn from a process-global counter, so its
    raw value depends on how many messages *earlier runs in the same
    process* created.  Trace streams must be byte-identical across
    same-seed runs, so ``fault.*``/``retx.*`` events name messages by a
    dense id assigned in first-trace order (which is deterministic).
    The injector and the reliability layer share one table so both
    streams agree on every message's name.
    """

    __slots__ = ("_map",)

    def __init__(self):
        self._map: Dict[int, int] = {}

    def map(self, raw: int) -> int:
        return self._map.setdefault(raw, len(self._map))


class FaultInjector:
    """Per-link packet fault decisions between injection and receive.

    Link ``src -> dst`` draws from the stream of
    ``random.Random(f"{seed}:{src}->{dst}")``, held as a window of
    draws and created at the link's first packet.
    """

    def __init__(self, sim, config: MachineConfig, msg_ids=None,
                 topology=None):
        if config.faults is None:
            raise ValueError("FaultInjector needs config.faults")
        self.sim = sim
        self.config = config
        self.fcfg: FaultConfig = config.faults
        # Per-(src, dst) base latency; the Machine shares its network's
        # topology, a bare injector builds its own.  The crossbar
        # returns ``wire_latency_us`` exactly, so armed-fault runs on
        # the default fabric keep their pre-topology schedules.
        if topology is None:
            from ..hw.topology import build_topology
            topology = build_topology(config)
        self.topology = topology
        #: optional repro.sim.Tracer receiving ``fault.*`` events.
        self.tracer = None
        self.msg_ids = msg_ids if msg_ids is not None else MsgIds()
        self._streams: Dict[Tuple[int, int], SeededStream] = {}
        # Counters.
        self.packets_dropped = 0
        self.packets_duplicated = 0
        self.packets_reordered = 0
        self.packets_jittered = 0

    def _rng(self, src: int, dst: int) -> SeededStream:
        rng = self._streams.get((src, dst))
        if rng is None:
            # A string seed hashes through SHA-512 inside Random, so it
            # is stable across processes (unlike hash()-based seeding).
            rng = SeededStream(f"{self.fcfg.seed}:{src}->{dst}")
            self._streams[(src, dst)] = rng
        return rng

    def deliver(self, pkt: Packet, arrive) -> None:
        """Carry ``pkt``, applying link faults; ``arrive`` is the
        destination NI's arrival callback (``NIC.arrive``), run by an
        event carrying the packet, as on the perfect fabric."""
        sim = self.sim
        f = self.fcfg
        src, dst = pkt.src, pkt.dst
        wire = self.topology.latency_us(src, dst)
        if not f.affects(src, dst):
            Timeout(sim, wire, pkt).add_callback(arrive)
            return
        rng = self._rng(src, dst)
        if f.loss and rng.random() < f.loss:
            self.packets_dropped += 1
            if self.tracer is not None:
                fields = {"src": src, "dst": dst, "kind": pkt.kind,
                          "msg": self.msg_ids.map(pkt.message.msg_id),
                          "idx": pkt.index, "size": pkt.size}
                if pkt.kind == "retx_ack":
                    # Recovery of a lost ack is the *original* message's
                    # retransmit + re-ack; name it for the sanitizer.
                    acks_msg, acker = pkt.message.payload
                    fields["acks_msg"] = self.msg_ids.map(acks_msg)
                    fields["acker"] = acker
                self.tracer.append(sim.now, "fault.drop", fields)
            return
        latency = wire
        if f.jitter_us:
            self.packets_jittered += 1
            latency += rng.uniform(0.0, f.jitter_us)
        if f.reorder and rng.random() < f.reorder:
            self.packets_reordered += 1
            latency += rng.uniform(0.0, f.reorder_window_us)
            if self.tracer is not None:
                self.tracer.append(sim.now, "fault.reorder", {
                    "src": src, "dst": dst, "kind": pkt.kind,
                    "msg": self.msg_ids.map(pkt.message.msg_id),
                    "idx": pkt.index})
        Timeout(sim, latency, pkt).add_callback(arrive)
        if f.dup and rng.random() < f.dup:
            self.packets_duplicated += 1
            if self.tracer is not None:
                self.tracer.append(sim.now, "fault.dup", {
                    "src": src, "dst": dst, "kind": pkt.kind,
                    "msg": self.msg_ids.map(pkt.message.msg_id),
                    "idx": pkt.index})
            # The copy keeps the packet's identity (message, index) so
            # the receiver's dedup discards it, but carries its own
            # stage timestamps.
            copy = dataclasses.replace(pkt)
            Timeout(sim, latency + wire, copy).add_callback(arrive)

    #: the counters, exported as ``faults.<name>`` gauges and as
    #: ``RunResult.stats`` entries.
    COUNTERS = ("packets_dropped", "packets_duplicated",
                "packets_reordered", "packets_jittered")

    def register_metrics(self, metrics) -> None:
        """Export the counters into a MetricsRegistry."""
        metrics.register_gauges("faults", self, *self.COUNTERS)
