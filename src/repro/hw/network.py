"""The system-area network: point-to-point links into one fabric.

The paper's four (or eight) nodes all connect directly to a single
8-way Myrinet switch, so the fabric itself is non-blocking: contention
happens at the NI endpoints (modelled in :class:`repro.hw.nic.NIC`),
not inside the switch.  The network therefore only adds the wire +
switch traversal latency and preserves per-source ordering.

At datacenter scale the single switch is replaced by a pluggable
:class:`repro.hw.topology.Topology`: the default crossbar charges the
seed's constant ``wire_latency_us`` (byte-identical traces), fat-tree
and dragonfly charge a per-(src, dst) latency computed in O(1) from
node coordinates.  Per-(src, dst) latency is constant across a run, so
per-source in-order delivery — the only ordering VMMC needs — is
preserved on every topology.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..sim import Simulator, Timeout
from .config import MachineConfig
from .packet import Packet
from .topology import Topology, build_topology

__all__ = ["Network"]


class Network:
    """A non-blocking fabric connecting all node NICs."""

    def __init__(self, sim: Simulator, config: MachineConfig):
        self.sim = sim
        self.config = config
        self.topology: Topology = build_topology(config)
        self._nics: Dict[int, "NIC"] = {}
        #: sorted attach order, rebuilt only on attach (``node_ids`` is
        #: on metric/monitor paths — re-sorting per call is O(N log N)
        #: per read at 1024 nodes).
        self._node_ids: List[int] = []
        #: installed by Machine when config.faults is set; None keeps
        #: the fabric perfect.
        self.fault_injector = None
        #: optional repro.sim.Tracer; only non-crossbar topologies emit
        #: ``net.route`` records (the default fabric stays silent, so
        #: traced crossbar runs are byte-identical to pre-topology
        #: traces).
        self.tracer = None
        self._trace_routes = self.topology.name != "crossbar"
        self.packets_carried = 0
        self.bytes_carried = 0

    def attach(self, node_id: int, nic: "NIC") -> None:
        if node_id in self._nics:
            raise ValueError(f"node {node_id} already attached")
        self._nics[node_id] = nic
        self._node_ids = sorted(self._nics)

    def set_tracer(self, tracer) -> None:
        """Point route tracing at ``tracer`` (crossbar emits nothing)."""
        self.tracer = tracer

    @property
    def node_ids(self) -> List[int]:
        return self._node_ids

    def latency_us(self, src: int, dst: int) -> float:
        """Fabric latency from ``src``'s NI to ``dst``'s NI."""
        return self.topology.latency_us(src, dst)

    def deliver(self, pkt: Packet) -> None:
        """Carry an injected packet to its destination NI.

        Arrival is scheduled one topology latency after injection;
        since per-(src, dst) latency is constant and injections from
        one NI are ordered, per-source in-order delivery (the only
        ordering VMMC needs) is preserved.  With a fault injector
        installed none of that holds: packets may be lost, duplicated
        or delayed, and the reliability layer above the NICs recovers.
        """
        dst = pkt.dst
        nic = self._nics.get(dst)
        if nic is None:
            raise LookupError(f"packet for unattached node {dst}")
        src = pkt.src
        if dst == src:
            raise ValueError("loopback packets must not enter the network")
        self.packets_carried += 1
        self.bytes_carried += pkt.size
        if self._trace_routes and self.tracer is not None:
            self.tracer.record(self.sim.now, "net.route", src=src, dst=dst,
                               kind=pkt.kind, size=pkt.size,
                               hops=self.topology.hops(src, dst),
                               latency_us=self.topology.latency_us(src, dst))
        if self.fault_injector is not None:
            self.fault_injector.deliver(pkt, nic.arrive)
            return
        # One event per hop: it carries the packet to ``nic.arrive``.
        Timeout(self.sim, self.topology.latency_us(src, dst),
                pkt).add_callback(nic.arrive)
