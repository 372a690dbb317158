"""Firmware performance monitor (Section 3.1 / Section 4).

The paper's VMMC monitor gathers network packet-level data in the NI
firmware and divides the sender-to-receiver path into four stages:

* **SourceLatency** — send request visible in the NI request queue
  until the packet's data is DMA'd into NI memory,
* **LANaiLatency** — until the NI has inserted the packet into the
  network,
* **NetLatency** — end of SourceLatency until the receiving NI holds
  the last word,
* **DestLatency** — arrival at the destination NI until the DMA into
  host memory completes (or, for firmware-consumed packets, until the
  firmware has finished with them).

Tables 3 and 4 report, per application, the ratio of the *average* time
a packet spends in each stage to the *uncontended* time for that stage,
split into small (<= 256 B) and large packets.  This module reproduces
those measurements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ..hw import Machine
from ..hw.packet import SMALL_MESSAGE_BYTES, Packet
from ..sim import RunningStat, SimulationError

__all__ = ["PerfMonitor", "StageRatios"]

STAGES = ("source", "lanai", "net", "dest")


@dataclass
class StageRatios:
    """Mean contention ratios per stage, one Tables-3/4 cell group."""

    source: float
    lanai: float
    net: float
    dest: float
    packets: int

    def as_dict(self) -> Dict[str, float]:
        return {"source": self.source, "lanai": self.lanai,
                "net": self.net, "dest": self.dest}


def _negative(kind: str, stage: str, actual: float) -> SimulationError:
    return SimulationError(
        f"{kind} packet has a negative {stage} latency ({actual!r} "
        f"us): its stage timestamps are out of order")


class PerfMonitor:
    """Attachable packet-level monitor over every NI in the machine."""

    def __init__(self, machine: Machine):
        self.machine = machine
        self.config = machine.config
        self._ratios = {
            size_class: {stage: RunningStat() for stage in STAGES}
            for size_class in ("small", "large")
        }
        self.packets_by_kind: Dict[str, int] = {}
        self.bytes_by_kind: Dict[str, int] = {}
        #: size -> uncontended (source, lanai, net, dest) references;
        #: the config is frozen, so each is a pure function of size.
        self._refs: Dict[int, Tuple[float, float, float, float]] = {}
        for nic in machine.nics:
            nic.on_packet_done = self.record

    # ---------------------------------------------------------------- record

    def record(self, pkt: Packet) -> None:
        # Every field is read once: this runs for every packet.
        cfg = self.config
        size = pkt.size
        msg = pkt.message
        kind = msg.kind
        t_src_done = pkt.t_src_done
        t_net_arrival = pkt.t_net_arrival
        stats = self._ratios["small" if size <= SMALL_MESSAGE_BYTES
                             else "large"]
        self.packets_by_kind[kind] = self.packets_by_kind.get(kind, 0) + 1
        self.bytes_by_kind[kind] = self.bytes_by_kind.get(kind, 0) + size
        refs = self._refs.get(size)
        if refs is None:
            refs = self._refs[size] = (
                cfg.src_uncontended_us(size), cfg.lanai_uncontended_us(size),
                cfg.net_uncontended_us(size), cfg.dest_uncontended_us(size))
        src_ref, lanai_ref, net_ref, dest_ref = refs

        # Stages are fed inline, not through a helper call per stage.
        fw_consumed = not msg.deliver_to_host
        # Firmware-origin control packets (lock grants/forwards) have no
        # host DMA at the source; their source stage is not comparable.
        if not (pkt.fw_origin and fw_consumed):
            actual = t_src_done - pkt.t_enqueue
            if actual < 0:
                raise _negative(kind, "source", actual)
            if src_ref > 0:
                stats["source"].add(actual / src_ref)
        actual = pkt.t_injected - t_src_done
        if actual < 0:
            raise _negative(kind, "lanai", actual)
        if lanai_ref > 0:
            stats["lanai"].add(actual / lanai_ref)
        actual = t_net_arrival - t_src_done
        if actual < 0:
            raise _negative(kind, "net", actual)
        if net_ref > 0:
            stats["net"].add(actual / net_ref)
        if fw_consumed:
            fw_cost = cfg.ni_lock_op_us if kind == "lock_op" \
                else cfg.ni_fetch_setup_us
            dest_ref = cfg.ni_proc_us + fw_cost
        actual = pkt.t_delivered - t_net_arrival
        if actual < 0:
            raise _negative(kind, "dest", actual)
        if dest_ref > 0:
            stats["dest"].add(actual / dest_ref)

    # ---------------------------------------------------------------- report

    def ratios(self, size_class: str) -> StageRatios:
        """Mean per-stage contention ratios for small or large packets."""
        if size_class not in self._ratios:
            raise ValueError(f"size_class must be 'small' or 'large'")
        stats = self._ratios[size_class]
        return StageRatios(
            source=stats["source"].mean,
            lanai=stats["lanai"].mean,
            net=stats["net"].mean,
            dest=stats["dest"].mean,
            packets=max(s.count for s in stats.values()) if stats else 0,
        )

    @property
    def total_packets(self) -> int:
        return sum(self.packets_by_kind.values())

    @property
    def total_bytes(self) -> int:
        return sum(self.bytes_by_kind.values())
