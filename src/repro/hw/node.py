"""SMP node model: processors, memory bus and the protocol process.

Each node runs ``procs_per_node`` compute processes plus one *floating
protocol process* (HLRC-SMP's design) that services interrupt-driven
protocol requests.  The protocol process is a serial resource: when
several incoming requests interrupt the node, they queue — one of the
contention effects the paper measures for Barnes-original's locks.

Local memory-bus contention (Section 3.4) is modelled as a static
inflation of compute time that grows with the number of active
processors on the node and the application's bus intensity.
"""

from __future__ import annotations

from ..sim import Resource, SeededStream, Simulator
from .config import MachineConfig

__all__ = ["Node"]


class Node:
    """One SMP node of the cluster."""

    def __init__(self, sim: Simulator, config: MachineConfig, node_id: int):
        self.sim = sim
        self.config = config
        self.node_id = node_id
        #: HLRC-SMP's floating protocol process (serial per node).
        self.protocol_proc = Resource(sim, 1, name=f"node{node_id}.proto")
        #: deterministic per-node draws (scheduling jitter): the stream
        #: of ``random.Random(seed * 1000003 + node_id)``, seeded at
        #: the first interrupt.
        self.rng = SeededStream(config.seed * 1000003 + node_id)
        # Interrupt accounting.
        self.interrupts_taken = 0
        self.interrupt_busy_us = 0.0

    def register_metrics(self, metrics) -> None:
        """Export this node's counters into a MetricsRegistry."""
        prefix = f"node.{self.node_id}"
        metrics.register_gauges(prefix, self, "interrupts_taken",
                                "interrupt_busy_us")
        metrics.gauge(f"{prefix}.proto_busy_us",
                      self.protocol_proc.sample_busy)

    # -- compute ------------------------------------------------------------

    def compute_time(self, t_us: float, bus_intensity: float = 0.0) -> float:
        """Inflate ``t_us`` of local compute for SMP memory-bus contention.

        ``bus_intensity`` in [0, 1] is how memory-bandwidth-bound the
        code is (FFT/Ocean high, Water low); each additional active
        processor on the bus adds ``bus_contention_factor * intensity``;
        every processor of the node counts as active.
        """
        if t_us < 0:
            raise ValueError("negative compute time")
        if not 0.0 <= bus_intensity <= 1.0:
            raise ValueError("bus_intensity must be within [0, 1]")
        extra = self.config.bus_contention_factor * bus_intensity \
            * max(self.config.procs_per_node - 1, 0)
        return t_us * (1.0 + extra)

    # -- interrupts ------------------------------------------------------------

    def interrupt_entry_delay(self) -> float:
        """Cost to get the protocol process running for one request.

        Interrupt delivery plus SMP scheduling effects; the jitter is an
        exponential with the configured mean, drawn from the node RNG so
        runs are reproducible.
        """
        cfg = self.config
        jitter = self.rng.expovariate(1.0 / cfg.sched_jitter_us) \
            if cfg.sched_jitter_us > 0 else 0.0
        return cfg.interrupt_us + cfg.handler_dispatch_us + jitter

    def handler(self, gen, entry_delay: bool = True):
        """Generator: run ``gen`` as one protocol-handler activation.

        Serializes on the node's protocol process; with ``entry_delay``
        the activation is interrupt-driven and pays interrupt delivery
        plus scheduling jitter, otherwise it is a synchronous dispatch
        (e.g. work triggered by a local release) costing only the
        dispatch overhead.
        """
        self.interrupts_taken += 1 if entry_delay else 0
        start = self.sim.now
        yield self.protocol_proc.request()
        try:
            if entry_delay:
                yield self.sim.timeout(self.interrupt_entry_delay())
            else:
                yield self.sim.timeout(self.config.handler_dispatch_us)
            yield from gen
        finally:
            self.protocol_proc.release()
        self.interrupt_busy_us += self.sim.now - start
