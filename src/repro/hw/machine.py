"""Cluster assembly: nodes + NICs + network on one simulator.

Construction is O(1) registry work per node: nodes and NICs are built
eagerly (their boot order feeds the engine's event FIFO, so laziness
there would perturb dispatch order and break trace byte-identity), but
their per-node metric instruments — ~10 names per node, 10k+ at 1024
nodes — are registered through one deferred thunk that the registry
runs on its first query.  A machine whose metrics are never read pays
nothing; one that is read materializes the full namespace once.
The same thunk declares the machine's sampled probes (one reader per
metric, over every node), so a machine nobody samples or reads builds
none.
"""

from __future__ import annotations

import weakref
from functools import partial
from typing import List, Optional

from ..obs.metrics import MetricsRegistry
from ..sim import Simulator
from .config import MachineConfig
from .network import Network
from .nic import NIC
from .node import Node

__all__ = ["Machine"]


class Machine:
    """The simulated cluster: one call builds the whole testbed."""

    def __init__(self, config: Optional[MachineConfig] = None,
                 sim: Optional[Simulator] = None):
        self.config = config or MachineConfig()
        self.sim = sim or Simulator()
        #: machine-wide metric namespace; every layer registers its
        #: instruments here (see repro.obs.metrics).
        self.metrics = MetricsRegistry()
        self.network = Network(self.sim, self.config)
        self.nodes: List[Node] = []
        self.nics: List[NIC] = []
        for node_id in range(self.config.nodes):
            node = Node(self.sim, self.config, node_id)
            nic = NIC(self.sim, self.config, node_id, self.network)
            self.network.attach(node_id, nic)
            self.nodes.append(node)
            self.nics.append(nic)
        self.fault_injector = None
        self.reliability = None
        if self.config.faults is not None:
            # Imported here: repro.faults builds on repro.hw, so a
            # top-level import would be circular.
            from ..faults import FaultInjector, MsgIds, ReliabilityLayer
            ids = MsgIds()  # one table: fault.* and retx.* must agree
            self.fault_injector = FaultInjector(
                self.sim, self.config, msg_ids=ids,
                topology=self.network.topology)
            self.network.fault_injector = self.fault_injector
            self.reliability = ReliabilityLayer(self, msg_ids=ids)
        # Through a proxy: the registry is the machine's own, so a
        # bound method would make the two name each other.
        self.metrics.defer(partial(Machine._register_metrics,
                                   weakref.proxy(self)))

    def _register_metrics(self, metrics: MetricsRegistry) -> None:
        """Deferred: bind every per-node/per-layer instrument name, and
        the per-node NI queue depth and interrupt probes plus the
        machine-wide in-flight packet count."""
        for node in self.nodes:
            node.register_metrics(metrics)
        for nic in self.nics:
            nic.register_metrics(metrics)
        metrics.register_probe(
            "ni.queue_depth", "gauge", self,
            lambda m: [nic.queue_depth() for nic in m.nics])
        metrics.register_probe(
            "node.interrupts", "counter", self,
            lambda m: [node.interrupts_taken for node in m.nodes])
        metrics.register_probe("net.in_flight", "gauge", self,
                               Machine.packets_in_flight)
        if self.fault_injector is not None:
            self.fault_injector.register_metrics(metrics)
            self.reliability.register_metrics(metrics)

    def packets_in_flight(self) -> int:
        """Packets injected into the fabric whose last word has not
        yet arrived at the receiving NI (an O(nodes) fold over existing
        counters: the delivery hot path stays untouched).  An injected
        duplicate is one more packet on the wire, a dropped packet one
        fewer."""
        n = sum(nic.packets_sent - nic.packets_received
                for nic in self.nics)
        faults = self.fault_injector
        if faults is not None:
            n += faults.packets_duplicated - faults.packets_dropped
        return n

    def attach_tracer(self, tracer) -> None:
        """Point the network's route tracing and the fault/retransmit
        layers at ``tracer`` (crossbar fabrics emit no route records,
        and the fault hookup is a no-op when fault injection is off)."""
        self.network.set_tracer(tracer)
        if self.fault_injector is not None:
            self.fault_injector.tracer = tracer
            self.reliability.tracer = tracer

    def attach_spans(self, spans) -> None:
        """Arm causal span recording in the hardware layers: NI
        firmware-service spans on every NIC and retransmission-chain
        spans in the reliable transport (when faults are armed)."""
        for nic in self.nics:
            nic.spans = spans
        if self.reliability is not None:
            self.reliability.spans = spans

    def node_of(self, rank: int) -> Node:
        """The node hosting global process ``rank``."""
        return self.nodes[self.config.node_of(rank)]

    def run(self, until: Optional[float] = None) -> float:
        return self.sim.run(until=until)

    def close(self) -> None:
        """End of the machine's life, once its run is over: closes
        every NIC, whose parked loops and hooks are the machine's last
        reference cycles.  Counters, stations and metrics stay
        readable; the machine runs nothing more."""
        for nic in self.nics:
            nic.close()
