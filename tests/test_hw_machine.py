"""Unit tests for Node, Machine, Network and packet mechanics."""

import pytest

from repro.hw import Machine, MachineConfig, Message
from repro.hw.packet import Packet


# -------------------------------------------------------------------- node

def test_compute_time_inflates_with_bus_intensity():
    machine = Machine()
    node = machine.nodes[0]
    base = node.compute_time(100.0, bus_intensity=0.0)
    hot = node.compute_time(100.0, bus_intensity=1.0)
    assert base == pytest.approx(100.0)
    cfg = machine.config
    assert hot == pytest.approx(
        100.0 * (1 + cfg.bus_contention_factor * 3))


def test_compute_time_validates_inputs():
    node = Machine().nodes[0]
    with pytest.raises(ValueError):
        node.compute_time(-1.0)
    with pytest.raises(ValueError):
        node.compute_time(1.0, bus_intensity=1.5)


def test_interrupt_entry_delay_is_positive_and_jittered():
    node = Machine().nodes[0]
    delays = [node.interrupt_entry_delay() for _ in range(50)]
    cfg = node.config
    floor = cfg.interrupt_us + cfg.handler_dispatch_us
    assert all(d >= floor for d in delays)
    assert len(set(delays)) > 10  # jitter varies


def test_interrupt_jitter_is_deterministic_per_seed():
    a = Machine(MachineConfig(seed=7)).nodes[0]
    b = Machine(MachineConfig(seed=7)).nodes[0]
    assert [a.interrupt_entry_delay() for _ in range(10)] \
        == [b.interrupt_entry_delay() for _ in range(10)]


def service(sim, us):
    """A handler body that occupies the protocol process for ``us``."""
    yield sim.timeout(us)


def test_handlers_serialize_on_protocol_process():
    machine = Machine(MachineConfig(sched_jitter_us=0.0))
    node = machine.nodes[0]
    sim = machine.sim
    spans = []

    def handler(tag):
        t0 = sim.now
        yield from node.handler(service(sim, 50.0))
        spans.append((tag, t0, sim.now))

    for i in range(3):
        sim.process(handler(i))
    sim.run()
    # each activation costs entry + 50us service and they serialize
    per = machine.config.interrupt_us \
        + machine.config.handler_dispatch_us + 50.0
    ends = sorted(end for _t, _s, end in spans)
    assert ends[1] - ends[0] == pytest.approx(per)
    assert node.interrupts_taken == 3


def test_handler_without_entry_delay_pays_dispatch_only():
    machine = Machine(MachineConfig(sched_jitter_us=0.0))
    node = machine.nodes[0]
    sim = machine.sim
    t_end = []

    def run():
        yield from node.handler(service(sim, 10.0), entry_delay=False)
        t_end.append(sim.now)

    sim.process(run())
    sim.run()
    assert t_end[0] == pytest.approx(
        machine.config.handler_dispatch_us + 10.0)
    assert node.interrupts_taken == 0


# ----------------------------------------------------------------- machine

def test_machine_builds_requested_topology():
    machine = Machine(MachineConfig(nodes=8))
    assert len(machine.nodes) == 8
    assert len(machine.nics) == 8
    assert machine.network.node_ids == list(range(8))


def test_machine_node_of_rank():
    machine = Machine()
    assert machine.node_of(5) is machine.nodes[1]


def test_network_rejects_duplicate_attach():
    machine = Machine()
    with pytest.raises(ValueError):
        machine.network.attach(0, machine.nics[0])


def test_network_rejects_loopback_packet():
    machine = Machine()
    msg = Message(src=0, dst=0, size=8)
    pkt = Packet(message=msg, size=8, index=0, is_last=True)
    with pytest.raises(ValueError):
        machine.network.deliver(pkt)


@pytest.mark.parametrize("nodes", [3, 8, 257])
def test_machine_invariants_at_odd_node_counts(nodes):
    cfg = MachineConfig(nodes=nodes, procs_per_node=1)
    machine = Machine(cfg)
    assert machine.network.node_ids == list(range(nodes))
    assert cfg.node_of(0) == 0
    assert cfg.node_of(nodes - 1) == nodes - 1
    assert machine.node_of(nodes - 1) is machine.nodes[-1]
    with pytest.raises(ValueError):
        cfg.node_of(nodes)


def test_node_ids_cache_tracks_attach():
    machine = Machine(MachineConfig(nodes=3))
    net = machine.network
    ids = net.node_ids
    assert ids == [0, 1, 2]
    # the cached list is returned by reference, rebuilt only on attach.
    assert net.node_ids is ids
    net.attach(7, machine.nics[0])
    assert net.node_ids == [0, 1, 2, 7]


def test_config_rejects_non_positive_counts():
    with pytest.raises(ValueError):
        MachineConfig(nodes=0)
    with pytest.raises(ValueError):
        MachineConfig(procs_per_node=0)


def test_large_machine_constructs_quickly():
    import time
    t0 = time.perf_counter()  # repro: noqa[wall-clock] — timing test
    machine = Machine(MachineConfig(nodes=1024, procs_per_node=1))
    elapsed = time.perf_counter() - t0  # repro: noqa[wall-clock] — timing test
    assert len(machine.nodes) == 1024
    # acceptance bound is < 1s; typical is tens of ms with lazy metrics.
    assert elapsed < 1.0, f"1024-node construction took {elapsed:.2f}s"


def test_large_machine_holds_little_before_it_runs():
    """Stations are slotted and queue nobody yet: a 256-node fat-tree
    machine held 3.9 MB live after construction with unslotted
    stations and a deque per wait queue, and ~2.0 MB now."""
    import gc
    import tracemalloc
    cfg = MachineConfig(nodes=256, procs_per_node=1, topology="fat-tree")
    gc.collect()
    tracemalloc.start()
    try:
        machine = Machine(cfg)
        live = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(machine.nodes) == 256
    assert live <= 2.5e6, f"{live / 1e6:.2f} MB"


def test_machine_metrics_registration_is_deferred():
    machine = Machine(MachineConfig(nodes=4))
    # no instrument materialized yet: construction queued one thunk.
    assert len(machine.metrics._instruments) == 0
    assert machine.metrics._pending
    names = machine.metrics.names()
    assert "nic.3.delivery_latency_us" in names
    assert "node.0.interrupts_taken" in names
    assert not machine.metrics._pending


def test_deferred_metrics_lose_no_samples():
    machine = Machine(MachineConfig(nodes=2))
    # samples recorded before the registry ever materializes ...
    machine.nics[1].delivery_latency.add(12.5)
    snap = machine.metrics.snapshot()
    # ... are visible once it does: the NIC owns the accumulator.
    assert snap["nic.1.delivery_latency_us"]["count"] == 1
    assert snap["nic.1.delivery_latency_us"]["mean"] == 12.5


def test_fault_gauges_read_per_key_attributes():
    from repro.hw import FaultConfig
    machine = Machine(MachineConfig(faults=FaultConfig(loss=0.01)))
    machine.fault_injector.packets_dropped = 5
    machine.reliability.retransmits = 7
    snap = machine.metrics.snapshot()
    assert snap["faults.packets_dropped"] == 5
    assert snap["retx.retransmits"] == 7


# ------------------------------------------------------------------ packet

def test_message_rejects_negative_size():
    with pytest.raises(ValueError):
        Message(src=0, dst=1, size=-1)


def test_message_rejects_nondeposit_loopback():
    with pytest.raises(ValueError):
        Message(src=1, dst=1, size=8, kind="fetch_req")


def test_multicast_validation():
    with pytest.raises(ValueError):
        Message(src=0, dst=1, size=8, multicast_dsts=(0, 1))
    with pytest.raises(ValueError):
        Message(src=0, dst=1, size=8, multicast_dsts=(1, 1))


def test_packet_dst_override_for_multicast():
    msg = Message(src=0, dst=1, size=8, multicast_dsts=(1, 2))
    pkt = Packet(message=msg, size=8, index=0, is_last=True, dst_node=2)
    assert pkt.dst == 2


def _general_segments(nic, message, fw_origin):
    """What ``NIC._segment`` builds through the multi-packet path."""
    sizes = nic._segment_sizes(message)
    return [(size, i, i == len(sizes) - 1, fw_origin)
            for i, size in enumerate(sizes)]


@pytest.mark.parametrize("fw_origin", [False, True])
def test_segment_single_packet_path_matches_general_path(fw_origin):
    machine = Machine(MachineConfig(packet_max=512))
    nic = machine.nics[0]
    pm = machine.config.packet_max
    for size in (0, 1, pm - 1, pm, pm + 1, 3 * pm, 3 * pm + 7):
        msg = Message(src=0, dst=1, size=size)
        pkts = nic._segment(msg, fw_origin=fw_origin)
        assert [(p.size, p.index, p.is_last, p.fw_origin)
                for p in pkts] == _general_segments(nic, msg, fw_origin)
        assert msg.packets_remaining == len(pkts)
        assert len(pkts) == machine.config.packets_for(size)
        assert all(p.message is msg for p in pkts)
        # One id draw per packet, in order: the shared message/packet
        # counter continues right after the last packet.
        assert [p.pkt_id for p in pkts] == list(
            range(msg.msg_id + 1, msg.msg_id + 1 + len(pkts)))
        assert Message(src=0, dst=1, size=1).msg_id == pkts[-1].pkt_id + 1


# -------------------------------------------------------------- NI queues

def test_post_queue_depth_respected():
    machine = Machine(MachineConfig(post_queue_len=4))
    nic = machine.nics[0]
    assert nic.post_queue.capacity == 4


def test_unknown_fw_kind_raises():
    machine = Machine()
    sim = machine.sim
    msg = Message(src=0, dst=1, size=8, kind="mystery",
                  deliver_to_host=False)

    def sender():
        yield machine.nics[0].post(msg)

    sim.process(sender())
    with pytest.raises(LookupError):
        sim.run()
