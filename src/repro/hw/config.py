"""Machine configuration: the calibrated cost model of the testbed.

Defaults reproduce the paper's platform (Section 3.1): a cluster of
four 4-way 200 MHz Pentium Pro SMPs connected by Myrinet through an
8-way crossbar, with the VMMC communication layer.  Calibration targets
stated in the paper:

* one-way latency for a one-word message  ~ 18 us
* maximum available bandwidth             ~ 95 MB/s
* asynchronous send post overhead         ~ 2 us
* 4 KB page fetch with remote fetch       ~ 110 us (one word ~ 40 us)
* 4 KB page fetch without remote fetch    ~ 200 us (interrupt path)

``benchmarks/test_calibration.py`` asserts the simulated communication
layer hits these numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Optional, Tuple

__all__ = ["FaultConfig", "MachineConfig", "PAPER_16P", "PAPER_32P"]


@dataclass(frozen=True)
class FaultConfig:
    """Deterministic fault model for the network fabric.

    All fault decisions are drawn from named per-link
    ``random.Random(f"{seed}:{src}->{dst}")`` streams, so identical
    seeds give byte-identical traces regardless of which links carry
    traffic first.  Attaching a FaultConfig to
    :attr:`MachineConfig.faults` also arms the drop-tolerant transport
    (:mod:`repro.faults.reliable`): per-channel sequence numbers,
    message acks, and timeout/retransmit with capped exponential
    backoff.  With ``faults=None`` (the default) neither layer exists
    and the fabric is the paper's perfect crossbar.
    """

    # -- fabric degradation --------------------------------------------------
    loss: float = 0.0            #: per-packet drop probability
    dup: float = 0.0             #: per-packet duplication probability
    reorder: float = 0.0         #: probability of a bounded extra delay
    reorder_window_us: float = 10.0   #: max extra delay for reordered pkts
    jitter_us: float = 0.0       #: uniform [0, jitter_us) latency jitter
    #: restrict faults to these (src, dst) links; None = every link.
    links: Optional[Tuple[Tuple[int, int], ...]] = None
    seed: int = 0                #: fault-stream seed (independent of RNG seed)

    # -- drop tolerance ------------------------------------------------------
    #: The backoff cap must exceed the worst-case congestion round trip:
    #: under heavy diff traffic (the Barnes direct-diff pathology) a
    #: packet can sit tens of milliseconds in the receiver's single
    #: FIFO delivery path before its ack is even generated, and a cap
    #: below that burns retransmit attempts on copies that are merely
    #: queued, not lost.
    retx_timeout_us: float = 400.0        #: initial retransmit timeout
    retx_timeout_max_us: float = 51200.0  #: backoff cap
    retx_max: int = 16                    #: retransmit attempts before failing

    def __post_init__(self):
        for name in ("loss", "dup", "reorder"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be a probability, got {p!r}")
        if self.jitter_us < 0 or self.reorder_window_us < 0:
            raise ValueError("jitter/reorder windows must be >= 0")
        if self.retx_timeout_us <= 0 or self.retx_timeout_max_us <= 0:
            raise ValueError("retransmit timeouts must be positive")
        if self.retx_max < 1:
            raise ValueError("retx_max must be >= 1")

    @property
    def degrades(self) -> bool:
        """True if the fabric actually loses/duplicates/delays packets."""
        return bool(self.loss or self.dup or self.reorder or self.jitter_us)

    def affects(self, src: int, dst: int) -> bool:
        return self.links is None or (src, dst) in self.links

    #: CLI spelling -> field name.
    _ALIASES = {"jitter": "jitter_us", "window": "reorder_window_us",
                "rto": "retx_timeout_us", "rto_max": "retx_timeout_max_us",
                "retries": "retx_max"}

    @classmethod
    def parse(cls, spec: str) -> "FaultConfig":
        """Build a FaultConfig from ``"loss=0.01,jitter=5,seed=3"``.

        Keys are field names or the short aliases ``jitter``,
        ``window``, ``rto``, ``rto_max`` and ``retries``.
        """
        types = {f.name: f.type for f in fields(cls)}
        kwargs = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise ValueError(
                    f"fault spec item {part!r} is not key=value")
            key, _, value = part.partition("=")
            key = cls._ALIASES.get(key.strip(), key.strip())
            if key == "links" or key not in types:
                raise ValueError(f"unknown fault knob {key!r}")
            caster = int if key in ("seed", "retx_max") else float
            try:
                kwargs[key] = caster(value)
            except ValueError:
                raise ValueError(
                    f"fault knob {key!r} needs a {caster.__name__}, "
                    f"got {value!r}") from None
        return cls(**kwargs)


@dataclass(frozen=True)
class MachineConfig:
    """All hardware/OS cost parameters, in microseconds and MB/s."""

    # -- topology ----------------------------------------------------------
    nodes: int = 4
    procs_per_node: int = 4
    #: fabric hop model (see :mod:`repro.hw.topology`): ``"crossbar"``
    #: is the paper's single non-blocking switch (byte-identical to the
    #: pre-topology model); ``"fat-tree"`` and ``"dragonfly"`` compute
    #: per-(src, dst) latency from node coordinates in O(1).
    topology: str = "crossbar"
    #: fat-tree switch radix (even); 0 = smallest radix that fits.
    topology_radix: int = 0
    #: dragonfly hosts-per-router ``p`` (balanced: a=2p, h=p);
    #: 0 = smallest balanced dragonfly that fits.
    topology_group_size: int = 0
    #: extra latency per switch traversal beyond the first (the first
    #: traversal is ``wire_latency_us``, the calibrated constant).
    hop_latency_us: float = 0.5

    # -- memory system ------------------------------------------------------
    page_size: int = 4096
    #: factor by which one extra active processor on the SMP memory bus
    #: inflates local compute time of bus-intensive code (Section 3.4,
    #: "Memory bus contention and cache effects").
    bus_contention_factor: float = 0.035
    host_memcpy_mbps: float = 80.0   # in-node page copy bandwidth

    # -- network fabric ------------------------------------------------------
    packet_max: int = 4096
    link_bw_mbps: float = 160.0      # Myrinet unidirectional link
    pci_bw_mbps: float = 133.0       # I/O bus between host memory and NI
    wire_latency_us: float = 0.5     # link + one 8-way crossbar hop

    # -- network interface (LANai) ------------------------------------------
    post_overhead_us: float = 2.0    # host cost to post an async send
    post_queue_len: int = 64         # NI request-queue entries
    dma_setup_us: float = 2.0        # per-packet DMA engine setup
    ni_proc_us: float = 5.0          # LANai per-packet processing (33 MHz)
    ni_lock_op_us: float = 3.0       # firmware lock-queue operation
    ni_fetch_setup_us: float = 3.0   # firmware remote-fetch service setup
    #: extra LANai time per run to pack/unpack scatter-gather diffs
    #: (Section 5: "would require additional processing in the NI").
    ni_sg_per_run_us: float = 0.8
    notify_us: float = 2.0           # completion/notification cost at host
    fetch_retry_backoff_us: float = 20.0  # wait before re-fetching a stale page
    #: stale-timestamp re-fetches allowed before the protocol gives up
    #: with a SimulationError (a home copy that never advances would
    #: otherwise livelock the simulation).
    fetch_retry_max: int = 64

    # -- fault injection ------------------------------------------------------
    #: None = the paper's perfect fabric; a FaultConfig arms the
    #: deterministic fault injector and the drop-tolerant transport.
    faults: Optional[FaultConfig] = None

    # -- interrupts & protocol handler ----------------------------------------
    interrupt_us: float = 55.0       # deliver, vector, enter handler
    sched_jitter_us: float = 40.0    # mean extra SMP scheduling delay
    handler_dispatch_us: float = 3.0  # protocol-process dispatch cost

    # -- OS / SVM software costs ------------------------------------------------
    mprotect_call_us: float = 9.0    # one mprotect() system call
    mprotect_page_us: float = 0.6    # per additional page when coalesced
    page_fault_us: float = 5.0       # SIGSEGV delivery + decode
    twin_us: float = 24.0            # copy a 4 KB page (make twin)
    diff_scan_us: float = 30.0       # word-compare a page with its twin
    diff_pack_per_kb_us: float = 10.0   # pack modified runs (Base)
    diff_apply_per_kb_us: float = 12.0  # unpack+apply at home (Base)
    protocol_op_us: float = 2.5      # small protocol bookkeeping action

    # -- RNG ---------------------------------------------------------------------
    seed: int = 12345

    def __post_init__(self):
        if self.nodes < 1 or self.procs_per_node < 1:
            raise ValueError("nodes and procs_per_node must be >= 1")
        # Imported here (not at module top) purely for the name check;
        # repro.hw.topology has no imports back into this module.
        from .topology import TOPOLOGIES
        if self.topology not in TOPOLOGIES:
            raise ValueError(
                f"unknown topology {self.topology!r} (choose from "
                f"{', '.join(sorted(TOPOLOGIES))})")
        if self.hop_latency_us < 0:
            raise ValueError("hop_latency_us must be >= 0")
        for name in ("packet_max", "page_size"):
            value = getattr(self, name)
            if value <= 0:
                raise ValueError(f"{name} must be > 0, got {value!r}")

    # -- derived -------------------------------------------------------------
    @property
    def total_procs(self) -> int:
        return self.nodes * self.procs_per_node

    def node_of(self, rank: int) -> int:
        """Node hosting global process ``rank``."""
        if not 0 <= rank < self.total_procs:
            raise ValueError(f"rank {rank} out of range")
        return rank // self.procs_per_node

    def procs_of(self, node: int) -> Tuple[int, ...]:
        """Global ranks of the processes on ``node``."""
        base = node * self.procs_per_node
        return tuple(range(base, base + self.procs_per_node))

    # -- uncontended stage references (used by the firmware monitor) -----------

    def src_uncontended_us(self, size: int) -> float:
        """Descriptor pickup + host->NI DMA for one packet."""
        return self.dma_setup_us + size / self.pci_bw_mbps

    def lanai_uncontended_us(self, size: int) -> float:
        """LANai processing + injection into the network."""
        return self.ni_proc_us + size / self.link_bw_mbps

    def net_uncontended_us(self, size: int) -> float:
        """End of source DMA until last word reaches the receiving NI."""
        return self.ni_proc_us + self.wire_latency_us + size / self.link_bw_mbps

    def dest_uncontended_us(self, size: int) -> float:
        """Receiving-NI processing + NI->host DMA."""
        return self.ni_proc_us + self.dma_setup_us + size / self.pci_bw_mbps

    def packets_for(self, size: int) -> int:
        """Number of packets a ``size``-byte message occupies."""
        if size <= 0:
            return 1
        return (size + self.packet_max - 1) // self.packet_max

    def scaled(self, **overrides) -> "MachineConfig":
        """A copy with selected fields replaced."""
        return replace(self, **overrides)


#: The paper's 16-processor testbed (4 nodes x 4-way SMP).
PAPER_16P = MachineConfig()

#: The 32-processor configuration of Table 5 (8 nodes x 4-way SMP).
PAPER_32P = MachineConfig(nodes=8)
