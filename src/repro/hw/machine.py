"""Cluster assembly: nodes + NICs + network on one simulator.

Construction is O(1) registry work per node: nodes and NICs are built
eagerly (their boot order feeds the engine's event FIFO, so laziness
there would perturb dispatch order and break trace byte-identity), but
their per-node metric instruments — ~10 names per node, 10k+ at 1024
nodes — are registered through one deferred thunk that the registry
runs on its first query.  A machine whose metrics are never read pays
nothing; one that is read materializes the full namespace once.
"""

from __future__ import annotations

from typing import List, Optional

from ..obs import MetricsRegistry
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
        self.metrics.defer(self._register_metrics)

    def _register_metrics(self, metrics: MetricsRegistry) -> None:
        """Deferred: bind every per-node/per-layer instrument name."""
        for node in self.nodes:
            node.register_metrics(metrics)
        for nic in self.nics:
            nic.register_metrics(metrics)
        for layer, prefix in ((self.fault_injector, "faults"),
                              (self.reliability, "retx")):
            if layer is None:
                continue
            for key, attr in layer.COUNTER_ATTRS.items():
                metrics.gauge(f"{prefix}.{key}",
                              lambda la=layer, a=attr: getattr(la, a))

    def register_probes(self, sampler) -> None:
        """Join a TimeSeriesSampler (repro.obs.timeseries): per-node
        NI queue depth and interrupt counters, machine-wide in-flight
        packets, and — when faults are armed — per-node outstanding
        retransmit state.  Called from the sampler's ``attach``; an
        unsampled machine never pays for this."""
        for nic in self.nics:
            nic.register_probes(sampler)
        for node in self.nodes:
            sampler.probe_counter(
                "node.interrupts", node.node_id,
                lambda n=node: n.interrupts_taken)
        sampler.probe_gauge("net.in_flight", None, self.packets_in_flight)
        if self.reliability is not None:
            self.reliability.register_probes(sampler)

    def packets_in_flight(self) -> int:
        """Packets injected into the fabric whose last word has not
        yet arrived at the receiving NI (an O(nodes) fold over existing
        counters: the delivery hot path stays untouched)."""
        sent = sum(nic.packets_sent for nic in self.nics)
        arrived = sum(nic.packets_received for nic in self.nics)
        return max(sent - arrived, 0)

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

    def nic_of(self, rank: int) -> NIC:
        """The NIC of the node hosting global process ``rank``."""
        return self.nics[self.config.node_of(rank)]

    def run(self, until: Optional[float] = None) -> float:
        return self.sim.run(until=until)
