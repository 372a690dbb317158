"""Unit tests for the pluggable fabric topologies."""

import pytest

from repro.hw import (Crossbar, Dragonfly, FatTree, Machine,
                      MachineConfig, TOPOLOGIES, build_topology)
from repro.runtime import run_svm
from repro.sim import Tracer
from repro.svm import GENIMA
from repro.apps import WaterSpatial


# ------------------------------------------------------------- registry

def test_registry_names_match_classes():
    assert TOPOLOGIES == {"crossbar": Crossbar, "fat-tree": FatTree,
                          "dragonfly": Dragonfly}


def test_build_topology_dispatches_on_config():
    assert isinstance(build_topology(MachineConfig()), Crossbar)
    assert isinstance(
        build_topology(MachineConfig(nodes=16, topology="fat-tree")),
        FatTree)
    assert isinstance(
        build_topology(MachineConfig(nodes=16, topology="dragonfly")),
        Dragonfly)


def test_unknown_topology_rejected_at_config_time():
    with pytest.raises(ValueError, match="unknown topology"):
        MachineConfig(topology="torus")


# ------------------------------------------------------------- crossbar

def test_crossbar_charges_the_seed_constant_verbatim():
    cfg = MachineConfig(nodes=8)
    topo = build_topology(cfg)
    for src in range(8):
        for dst in range(8):
            if src != dst:
                # identity, not approx: byte-identical traces depend
                # on the float coming through untouched.
                assert topo.latency_us(src, dst) == cfg.wire_latency_us
                assert topo.hops(src, dst) == 1


# ------------------------------------------------------------- fat tree

def test_fat_tree_autosizes_radix():
    assert FatTree(MachineConfig(nodes=16, topology="fat-tree")).radix == 4
    assert FatTree(MachineConfig(nodes=17, topology="fat-tree")).radix == 6
    assert FatTree(
        MachineConfig(nodes=1024, topology="fat-tree")).radix == 16


def test_fat_tree_hop_structure():
    topo = FatTree(MachineConfig(nodes=16, topology="fat-tree"))
    # radix 4: 2 hosts per edge switch, 4 hosts per pod.
    assert topo.hops(0, 0) == 0
    assert topo.hops(0, 1) == 1     # same edge switch
    assert topo.hops(0, 2) == 3     # same pod, different edge
    assert topo.hops(0, 4) == 5     # different pod
    assert topo.diameter_hops() == 5


def test_fat_tree_hops_symmetric_and_bounded():
    topo = FatTree(MachineConfig(nodes=64, topology="fat-tree"))
    for src in range(0, 64, 7):
        for dst in range(0, 64, 5):
            h = topo.hops(src, dst)
            assert h == topo.hops(dst, src)
            assert (src == dst and h == 0) or 1 <= h <= 5


def test_fat_tree_latency_formula():
    cfg = MachineConfig(nodes=16, topology="fat-tree",
                        hop_latency_us=0.25)
    topo = build_topology(cfg)
    assert topo.latency_us(0, 1) == cfg.wire_latency_us
    assert topo.latency_us(0, 4) == pytest.approx(
        cfg.wire_latency_us + 4 * 0.25)


def test_fat_tree_rejects_odd_or_undersized_radix():
    with pytest.raises(ValueError, match="even"):
        FatTree(MachineConfig(nodes=4, topology="fat-tree",
                              topology_radix=3))
    with pytest.raises(ValueError, match="holds"):
        FatTree(MachineConfig(nodes=128, topology="fat-tree",
                              topology_radix=4))


# ------------------------------------------------------------ dragonfly

def test_dragonfly_autosizes_group():
    topo = Dragonfly(MachineConfig(nodes=256, topology="dragonfly"))
    # p=3: (2p)*p*(2p^2+1) = 342 hosts, the smallest balanced fit.
    assert topo.hosts_per_router == 3
    assert topo.groups == 19
    # balanced: a = 2p, h = p.
    assert topo.routers_per_group == 2 * topo.hosts_per_router
    assert topo.global_links_per_router == topo.hosts_per_router


def test_dragonfly_hop_structure():
    topo = Dragonfly(MachineConfig(nodes=256, topology="dragonfly"))
    p = topo.hosts_per_router
    assert topo.hops(0, 0) == 0
    assert topo.hops(0, p - 1) == 1            # same router
    assert topo.hops(0, p) == 2                # same group, next router
    hosts_per_group = topo.routers_per_group * p
    h = topo.hops(0, hosts_per_group)          # adjacent group
    assert 2 <= h <= 4


def test_dragonfly_hops_symmetric_and_bounded():
    topo = Dragonfly(MachineConfig(nodes=256, topology="dragonfly"))
    for src in range(0, 256, 31):
        for dst in range(0, 256, 17):
            h = topo.hops(src, dst)
            assert h == topo.hops(dst, src)
            assert (src == dst and h == 0) or 1 <= h <= 4


def test_dragonfly_rejects_undersized_group():
    with pytest.raises(ValueError, match="holds"):
        Dragonfly(MachineConfig(nodes=1024, topology="dragonfly",
                                topology_group_size=2))


# ------------------------------------------------- network integration

def test_network_uses_topology_latency():
    cfg = MachineConfig(nodes=16, topology="fat-tree")
    machine = Machine(cfg)
    topo = machine.network.topology
    assert isinstance(topo, FatTree)
    assert machine.network.latency_us(0, 15) == topo.latency_us(0, 15)


def test_non_crossbar_run_traces_routes():
    tracer = Tracer()
    run_svm(WaterSpatial(),
            GENIMA, config=MachineConfig(topology="fat-tree"),
            tracer=tracer)
    routes = [e for e in tracer.events if e.category == "net.route"]
    assert routes, "fat-tree run must emit net.route records"
    for e in routes[:50]:
        assert e.fields["hops"] >= 1
        assert e.fields["latency_us"] > 0


def test_crossbar_run_traces_no_routes():
    tracer = Tracer()
    run_svm(WaterSpatial(), GENIMA, tracer=tracer)
    assert not [e for e in tracer.events if e.category == "net.route"]


def test_fat_tree_run_is_deterministic_and_slower_across_pods():
    cfg = MachineConfig(topology="fat-tree")
    r1 = run_svm(WaterSpatial(), GENIMA, config=cfg)
    r2 = run_svm(WaterSpatial(), GENIMA, config=cfg)
    assert r1.time_us == r2.time_us
    flat = run_svm(WaterSpatial(), GENIMA, config=MachineConfig())
    # 4 nodes on a radix-4 fat tree span pods: more hops, never faster.
    assert r1.time_us >= flat.time_us
