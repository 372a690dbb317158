"""Unit tests for the machine configuration."""

import pytest

from repro.hw import PAPER_16P, PAPER_32P, MachineConfig


def test_paper_testbed_topology():
    assert PAPER_16P.nodes == 4
    assert PAPER_16P.procs_per_node == 4
    assert PAPER_16P.total_procs == 16
    assert PAPER_32P.total_procs == 32


def test_node_of_rank_mapping():
    cfg = PAPER_16P
    assert cfg.node_of(0) == 0
    assert cfg.node_of(3) == 0
    assert cfg.node_of(4) == 1
    assert cfg.node_of(15) == 3


def test_node_of_out_of_range():
    with pytest.raises(ValueError):
        PAPER_16P.node_of(16)
    with pytest.raises(ValueError):
        PAPER_16P.node_of(-1)


def test_packets_for_segmentation():
    cfg = PAPER_16P
    assert cfg.packets_for(0) == 1
    assert cfg.packets_for(1) == 1
    assert cfg.packets_for(4096) == 1
    assert cfg.packets_for(4097) == 2
    assert cfg.packets_for(3 * 4096) == 3


def test_uncontended_references_monotone_in_size():
    cfg = PAPER_16P
    for fn in (cfg.src_uncontended_us, cfg.lanai_uncontended_us,
               cfg.net_uncontended_us, cfg.dest_uncontended_us):
        assert fn(4096) > fn(8) > 0


def test_scaled_copy_overrides_fields():
    cfg = PAPER_16P.scaled(nodes=8, interrupt_us=50.0)
    assert cfg.nodes == 8
    assert cfg.interrupt_us == 50.0
    # original untouched (frozen dataclass)
    assert PAPER_16P.nodes == 4


def test_config_is_immutable():
    with pytest.raises(Exception):
        PAPER_16P.nodes = 10  # type: ignore[misc]


@pytest.mark.parametrize("nodes", [3, 8, 257])
def test_node_of_covers_odd_node_counts(nodes):
    cfg = PAPER_16P.scaled(nodes=nodes)
    per = cfg.procs_per_node
    assert cfg.total_procs == nodes * per
    assert cfg.node_of(0) == 0
    assert cfg.node_of(per - 1) == 0
    assert cfg.node_of(per) == 1
    assert cfg.node_of(cfg.total_procs - 1) == nodes - 1
    with pytest.raises(ValueError):
        cfg.node_of(cfg.total_procs)


def test_paper_32p_unchanged_by_topology_fields():
    # the scaled-machine fields default to the paper's fabric.
    assert PAPER_32P.nodes == 8
    assert PAPER_32P.topology == "crossbar"
    assert PAPER_32P.topology_radix == 0
    assert PAPER_32P.hop_latency_us == 0.5


def test_topology_field_validation():
    with pytest.raises(ValueError):
        PAPER_16P.scaled(topology="mesh")
    with pytest.raises(ValueError):
        PAPER_16P.scaled(hop_latency_us=-1.0)


@pytest.mark.parametrize("field,value", [("packet_max", 0),
                                         ("packet_max", -5),
                                         ("page_size", 0),
                                         ("pci_bw_mbps", float("nan")),
                                         ("link_bw_mbps", float("inf")),
                                         ("host_memcpy_mbps", 0.0),
                                         ("ni_proc_us", -1),
                                         ("dma_setup_us", float("inf")),
                                         ("interrupt_us", float("nan")),
                                         ("fetch_retry_max", -1),
                                         ("fetch_retry_max", 1.5),
                                         ("post_queue_len", 0),
                                         ("post_queue_len", True),
                                         ("packet_max", 1000.5),
                                         ("packet_max", 4096.0),
                                         ("page_size", 4096.5),
                                         ("nodes", 2.5),
                                         ("nodes", True),
                                         ("nodes", 0),
                                         ("procs_per_node", 4.0),
                                         ("procs_per_node", False),
                                         ("topology_radix", 4.5),
                                         ("topology_group_size", 1.5),
                                         ("topology_group_size", -1),
                                         ("bus_contention_factor",
                                          float("nan")),
                                         ("bus_contention_factor",
                                          float("inf")),
                                         ("bus_contention_factor", -0.1),
                                         ("seed", 1.5),
                                         ("seed", True)])
def test_size_field_validation(field, value):
    # Construct only: unchecked, a non-positive packet_max never finishes
    # segmenting, so running it would hang instead of failing; a NaN or
    # infinite cost or bandwidth ends in a late error or a wrong time; a
    # fractional packet_max makes fractional packet sizes and counts, a
    # fractional dragonfly group size builds 5.5 groups, a fractional
    # node count fails late inside the machine build, and a negative
    # bus_contention_factor shortens bus-bound compute.  A seed is a
    # whole number; a negative one stays legal.
    with pytest.raises(ValueError, match=field):
        MachineConfig(**{field: value})
    assert MachineConfig(seed=-1).seed == -1
