"""Communication-layer microbenchmarks (Section 3.1 calibration).

The paper states: one-way one-word latency ~18 us, maximum bandwidth
~95 MB/s, async send post overhead ~2 us, 4 KB page fetch ~110 us with
remote fetch (~40 us for one word) and ~200 us through the interrupt
path.  These functions measure the simulated communication layer the
same way, and ``benchmarks/test_calibration.py`` asserts the results
sit in bands around the paper's numbers.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..hw import Machine, MachineConfig
from ..svm import BASE, DW_RF, HLRCProtocol
from ..vmmc import VMMC
from .reporting import format_table

__all__ = ["measure_comm_layer", "measure_page_fetch",
           "render_calibration"]


def measure_comm_layer(
        config: Optional[MachineConfig] = None) -> Dict[str, float]:
    """One-word latency, large-transfer bandwidth, post overhead."""
    config = config or MachineConfig()
    machine = Machine(config)
    vmmc = VMMC(machine)
    sim = machine.sim
    out: Dict[str, float] = {}

    def bench():
        # post overhead: async send returns after the post.
        t0 = sim.now
        yield from vmmc.send(0, 1, size=8)
        out["post_overhead_us"] = sim.now - t0
        yield sim.timeout(500.0)
        # one-way latency: synchronous one-word send, minus notify.
        t0 = sim.now
        yield from vmmc.send(0, 1, size=8, await_delivery=True)
        out["one_word_latency_us"] = sim.now - t0 - config.notify_us
        yield sim.timeout(500.0)
        # bandwidth: stream 4 MB through pipelined sends.
        total = 4 << 20
        t0 = sim.now
        done = sim.event()
        sent = [0]

        def delivered(_msg):
            sent[0] += 1
            if sent[0] == total // config.packet_max:
                done.succeed()

        for _ in range(total // config.packet_max):
            yield from vmmc.send(0, 1, size=config.packet_max,
                                 on_delivered=delivered)
        yield done
        out["bandwidth_mbps"] = total / (sim.now - t0)

    sim.process(bench())
    sim.run()
    machine.close()
    return out


def measure_page_fetch(
        config: Optional[MachineConfig] = None) -> Dict[str, float]:
    """Uncontended page fetch latency, Base (interrupt) vs RF paths."""
    config = config or MachineConfig()
    out: Dict[str, float] = {}
    for label, feats in (("base", BASE), ("rf", DW_RF)):
        for size_label, n_pages in (("page", 1),):
            machine = Machine(config)
            proto = HLRCProtocol(machine, feats)
            region = proto.allocate("calib", 8, home_policy="node:1")
            times = []

            def worker():
                t0 = machine.sim.now
                yield from proto.read(0, region, [0])
                times.append(machine.sim.now - t0 - config.page_fault_us)

            machine.sim.process(worker())
            machine.run()
            machine.close()
            out[f"{label}_{size_label}_fetch_us"] = times[0]
    return out


def render_calibration(comm: Dict[str, float],
                       fetch: Dict[str, float]) -> str:
    rows = [
        ("async send post overhead (us)", "~2", comm["post_overhead_us"]),
        ("one-way 1-word latency (us)", "~18", comm["one_word_latency_us"]),
        ("max bandwidth (MB/s)", "~95", comm["bandwidth_mbps"]),
        ("4KB fetch, remote fetch (us)", "~110", fetch["rf_page_fetch_us"]),
        ("4KB fetch, interrupt path (us)", "~200",
         fetch["base_page_fetch_us"]),
    ]
    return format_table(["Metric", "Paper", "Measured"], rows,
                        title="Section 3.1 communication-layer calibration")
