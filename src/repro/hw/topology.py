"""Pluggable fabric topologies: per-(src, dst) latency in O(1).

The paper's testbed connects every node to one non-blocking 8-way
Myrinet crossbar, so the seed model charged a single constant
``wire_latency_us`` for every packet.  Nothing else in ``repro.hw``
depends on that uniformity, and at 256-1024 nodes a single crossbar is
no longer a physical fabric.  This module keeps the crossbar as the
default — :class:`Crossbar` returns ``config.wire_latency_us``
unchanged, so default configs stay byte-identical — and adds two
datacenter-scale hop models:

* :class:`FatTree` — a three-level folded-Clos built from
  ``radix``-port switches (k-ary fat tree: ``k^3/4`` hosts).  Node
  coordinates follow from the node id alone (edge switch
  ``id // (k/2)``, pod ``id // (k/2)^2``), so the number of switch
  traversals between two hosts is computed in O(1): 1 under the same
  edge switch, 3 within a pod, 5 across pods.
* :class:`Dragonfly` — the balanced Kim/Dally arrangement: ``p`` hosts
  per router, ``a = 2p`` routers per group, ``h = p`` global links per
  router, ``a*h + 1`` groups.  Minimal routing traverses the source
  router, at most one gateway router on each side of the single global
  link, and the destination router — 1, 2, 3 or 4 router traversals,
  all derived arithmetically from the two node ids.

Latency model: every topology charges ``wire_latency_us`` for the
first switch traversal (the calibrated "link + one crossbar hop" of
the paper) and ``hop_latency_us`` for each additional traversal, so
the crossbar formula degenerates to exactly the seed constant.
Contention stays at the NI endpoints, as in the paper: these are *hop
count* models, not queueing models — the fabric itself remains
non-blocking and preserves per-source ordering (per-(src, dst) latency
is constant across a run, so packets from one source to one
destination never overtake each other).
"""

from __future__ import annotations

import abc
from typing import Dict, Type

__all__ = ["Topology", "Crossbar", "FatTree", "Dragonfly",
           "TOPOLOGIES", "build_topology"]


class Topology(abc.ABC):
    """Latency model of one fabric; built from a ``MachineConfig``."""

    #: registry key, also the ``MachineConfig.topology`` spelling.
    name: str = ""

    def __init__(self, config):
        self.config = config

    @abc.abstractmethod
    def hops(self, src: int, dst: int) -> int:
        """Switch/router traversals on the (src, dst) minimal path."""

    def latency_us(self, src: int, dst: int) -> float:
        """Wire latency of one packet from ``src``'s NI to ``dst``'s.

        First traversal costs ``wire_latency_us`` (the calibrated
        constant), each further one ``hop_latency_us``.
        """
        cfg = self.config
        return cfg.wire_latency_us \
            + (self.hops(src, dst) - 1) * cfg.hop_latency_us

    def diameter_hops(self) -> int:
        """Worst-case traversal count between any two distinct nodes."""
        raise NotImplementedError


class Crossbar(Topology):
    """The paper's single non-blocking switch: one traversal, always.

    ``latency_us`` returns the configured constant itself (no
    arithmetic), which is what keeps pre-topology traces byte-identical
    for every default config.
    """

    name = "crossbar"

    def hops(self, src: int, dst: int) -> int:
        return 1

    def latency_us(self, src: int, dst: int) -> float:
        return self.config.wire_latency_us

    def diameter_hops(self) -> int:
        return 1


class FatTree(Topology):
    """Three-level k-ary fat tree (folded Clos) of ``radix``-port
    switches.

    Capacity ``k^3/4`` hosts: ``k/2`` hosts per edge switch, ``k/2``
    edge switches per pod, ``k`` pods.  ``config.topology_radix`` picks
    ``k`` explicitly (must be even); 0 auto-sizes to the smallest even
    radix whose fat tree holds ``config.nodes`` hosts.
    """

    name = "fat-tree"

    def __init__(self, config):
        super().__init__(config)
        k = config.topology_radix
        if k == 0:
            k = 2
            while (k ** 3) // 4 < config.nodes:
                k += 2
        if k < 2 or k % 2:
            raise ValueError(f"fat-tree radix must be even and >= 2, "
                             f"got {k}")
        if (k ** 3) // 4 < config.nodes:
            raise ValueError(
                f"radix-{k} fat tree holds {(k ** 3) // 4} hosts, "
                f"config has {config.nodes} nodes")
        self.radix = k
        self._per_edge = k // 2
        self._per_pod = (k // 2) ** 2

    def hops(self, src: int, dst: int) -> int:
        if src == dst:
            return 0
        per_edge = self._per_edge
        if src // per_edge == dst // per_edge:
            return 1                      # same edge switch
        if src // self._per_pod == dst // self._per_pod:
            return 3                      # edge - aggregation - edge
        return 5                          # up to the core and back down

    def diameter_hops(self) -> int:
        return 5


class Dragonfly(Topology):
    """Balanced dragonfly: ``p`` hosts/router, ``a = 2p`` routers/group,
    ``h = p`` global links/router, ``a*h + 1`` groups.

    ``config.topology_group_size`` picks ``p`` explicitly; 0 auto-sizes
    to the smallest balanced dragonfly holding ``config.nodes`` hosts.
    Each ordered group pair (g, g') is wired through one global link
    whose endpoint routers follow from the standard consecutive
    assignment: link ``l = (g' - g - 1) mod (a*h)`` leaves group ``g``
    from router ``l // h``.  Minimal routing is then fully arithmetic.
    """

    name = "dragonfly"

    def __init__(self, config):
        super().__init__(config)
        p = config.topology_group_size
        if p == 0:
            p = 1
            while self._capacity(p) < config.nodes:
                p += 1
        if p < 1:
            raise ValueError(f"dragonfly group size must be >= 1, got {p}")
        if self._capacity(p) < config.nodes:
            raise ValueError(
                f"balanced dragonfly with p={p} holds "
                f"{self._capacity(p)} hosts, config has "
                f"{config.nodes} nodes")
        self.hosts_per_router = p
        self.routers_per_group = 2 * p
        self.global_links_per_router = p
        self.groups = 2 * p * p + 1

    @staticmethod
    def _capacity(p: int) -> int:
        # a * p hosts per group, a*h + 1 groups, with a = 2p and h = p.
        return (2 * p) * p * (2 * p * p + 1)

    def _coords(self, node: int):
        router = node // self.hosts_per_router
        return router // self.routers_per_group, \
            router % self.routers_per_group

    def hops(self, src: int, dst: int) -> int:
        if src == dst:
            return 0
        sg, sr = self._coords(src)
        dg, dr = self._coords(dst)
        if sg == dg:
            return 1 if sr == dr else 2
        a, h = self.routers_per_group, self.global_links_per_router
        # The one global link between sg and dg, seen from each side.
        out_router = ((dg - sg - 1) % (a * h)) // h
        in_router = ((sg - dg - 1) % (a * h)) // h
        return 2 + (sr != out_router) + (dr != in_router)

    def diameter_hops(self) -> int:
        return 4


#: topology name -> class (the ``MachineConfig.topology`` choices).
TOPOLOGIES: Dict[str, Type[Topology]] = {
    cls.name: cls for cls in (Crossbar, FatTree, Dragonfly)
}


def build_topology(config) -> Topology:
    """The :class:`Topology` instance a config describes."""
    try:
        cls = TOPOLOGIES[config.topology]
    except KeyError:
        raise ValueError(
            f"unknown topology {config.topology!r} (choose from "
            f"{', '.join(sorted(TOPOLOGIES))})") from None
    return cls(config)
