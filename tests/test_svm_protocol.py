"""Integration tests for the HLRC/GeNIMA protocol engine."""

import pytest

from repro.hw import Machine, MachineConfig
from repro.svm import (BASE, DW, DW_RF, DW_RF_DD, GENIMA, HLRCProtocol,
                       PROTOCOL_LADDER, PageAccess, ProtocolFeatures)


def make(feats, **cfg_overrides):
    cfg = MachineConfig(**cfg_overrides) if cfg_overrides else MachineConfig()
    machine = Machine(cfg)
    proto = HLRCProtocol(machine, feats)
    return machine, proto


def run_workers(machine, workers):
    finished = []

    def wrap(gen, tag):
        yield from gen
        finished.append(tag)

    for i, gen in enumerate(workers):
        machine.sim.process(wrap(gen, i), name=f"w{i}")
    machine.run()
    assert len(finished) == len(workers), "some workers did not finish"
    return machine.sim.now


# ----------------------------------------------------------------- features

def test_feature_names():
    assert BASE.name == "Base"
    assert DW.name == "DW"
    assert DW_RF.name == "DW+RF"
    assert DW_RF_DD.name == "DW+RF+DD"
    assert GENIMA.name == "GeNIMA"
    assert GENIMA.interrupt_free and not DW_RF_DD.interrupt_free


def test_direct_diffs_require_remote_fetch():
    with pytest.raises(ValueError):
        ProtocolFeatures(direct_diffs=True)


def test_ladder_is_cumulative():
    for earlier, later in zip(PROTOCOL_LADDER, PROTOCOL_LADDER[1:]):
        for flag in ("direct_writes", "remote_fetch", "direct_diffs",
                     "ni_locks"):
            assert getattr(later, flag) >= getattr(earlier, flag)


# -------------------------------------------------------------- basic ops

def test_local_read_at_home_is_cheap():
    machine, proto = make(BASE)
    region = proto.allocate("a", 8, home_policy="node:0")
    times = []

    def worker():
        yield from proto.read(0, region, [0, 1, 2])
        times.append(machine.sim.now)

    run_workers(machine, [worker()])
    # three local faults: page fault + protocol op + mprotect each
    assert times[0] < 100.0
    assert proto.page_fetches == 0


def test_remote_read_base_uses_interrupts():
    machine, proto = make(BASE)
    region = proto.allocate("a", 8, home_policy="node:1")

    def worker():
        yield from proto.read(0, region, [0])

    run_workers(machine, [worker()])
    assert proto.page_fetches == 1
    assert machine.nodes[1].interrupts_taken == 1
    # ~200us uncontended in the paper
    assert 120.0 < proto.buckets[0].data < 300.0


def test_remote_read_rf_avoids_interrupts_and_is_faster():
    t = {}
    for feats in (BASE, DW_RF):
        machine, proto = make(feats)
        region = proto.allocate("a", 8, home_policy="node:1")

        def worker():
            yield from proto.read(0, region, [0])

        run_workers(machine, [worker()])
        t[feats.name] = proto.buckets[0].data
        if feats is DW_RF:
            assert machine.nodes[1].interrupts_taken == 0
    # paper: ~110us vs ~200us
    assert t["DW+RF"] < 0.75 * t["Base"]


def test_same_node_processes_share_fetched_page():
    machine, proto = make(BASE)
    region = proto.allocate("a", 4, home_policy="node:1")

    def first():
        yield from proto.read(0, region, [0])

    def second():
        yield machine.sim.timeout(5.0)
        yield from proto.read(1, region, [0])  # rank 1: same node

    run_workers(machine, [first(), second()])
    assert proto.page_fetches == 1  # in-flight fetch shared


def test_write_to_invalid_page_fetches_then_twins():
    machine, proto = make(GENIMA)
    region = proto.allocate("a", 4, home_policy="node:1")

    def worker():
        yield from proto.write(0, region, [0], runs_per_page=2,
                               bytes_per_page=128)

    run_workers(machine, [worker()])
    assert proto.page_fetches == 1
    table = proto.tables[0]
    assert table.access(region.gid(0)) is PageAccess.WRITE
    assert region.gid(0) in table.dirty_pages


# ------------------------------------------------------ coherence end-to-end

def coherence_workload(proto, region, readers_value):
    """Writer updates page 0 under a lock; reader later locks and reads."""

    def writer():
        yield from proto.lock(0, 0)
        yield from proto.write(0, region, [0], runs_per_page=1,
                               bytes_per_page=256)
        yield from proto.unlock(0, 0)

    def reader():
        yield proto.sim.timeout(2000.0)
        yield from proto.lock(4, 0)  # rank 4 = node 1
        yield from proto.read(4, region, [0])
        readers_value.append(proto.sim.now)
        yield from proto.unlock(4, 0)

    return [writer(), reader()]


@pytest.mark.parametrize("feats", PROTOCOL_LADDER,
                         ids=lambda f: f.name)
def test_release_acquire_invalidates_and_refetches(feats):
    machine, proto = make(feats)
    region = proto.allocate("a", 4, home_policy="node:2")
    seen = []

    # Prime the reader's node with a valid copy first.
    def prime():
        yield from proto.read(4, region, [0])

    run_list = [prime()]
    run_list += coherence_workload(proto, region, seen)
    run_workers(machine, run_list)
    # The reader's node invalidated its copy at the acquire and had to
    # refetch: at least 2 fetches from node 1 plus the version check.
    gid = region.gid(0)
    needed = proto.interval_log.needed(gid, proto.node_clock[1], 1)
    assert needed.get(0, 0) >= 1  # saw writer's interval
    hp = proto._homes[gid]
    assert hp.applied.get(0, 0) >= 1  # diff reached the home
    assert proto.tables[1].access(gid) is not PageAccess.INVALID


def test_acquire_waits_for_eager_write_notices():
    """DW: the grant can outrun the broadcast write notices; the
    acquirer must wait on the interval flags before applying."""
    machine, proto = make(GENIMA)
    region = proto.allocate("a", 4, home_policy="node:3")
    order = []

    def writer():
        yield from proto.lock(0, 7)
        yield from proto.write(0, region, [1], runs_per_page=1,
                               bytes_per_page=64)
        yield from proto.unlock(0, 7)
        order.append("released")

    def reader():
        yield machine.sim.timeout(500.0)
        yield from proto.lock(12, 7)
        order.append("acquired")
        yield from proto.unlock(12, 7)

    run_workers(machine, [writer(), reader()])
    assert order == ["released", "acquired"]
    # the reader's node received and recorded the notice
    assert proto.wn_received[3][0] >= 1


def test_fetch_retry_on_stale_home_copy():
    """RF: if the page is fetched while the diff is still in flight the
    snapshot check fails and the requester retries (Section 2)."""
    machine, proto = make(DW_RF, diff_pack_per_kb_us=4000.0)
    # enormous pack cost delays the diff's arrival at the home
    region = proto.allocate("a", 4, home_policy="node:2")

    def writer():
        yield from proto.lock(0, 0)
        yield from proto.write(0, region, [0], runs_per_page=1,
                               bytes_per_page=1024)
        yield from proto.unlock(0, 0)

    def reader():
        yield machine.sim.timeout(100.0)
        yield from proto.lock(4, 0)
        yield from proto.read(4, region, [0])
        yield from proto.unlock(4, 0)

    run_workers(machine, [writer(), reader()])
    assert proto.fetch_retries > 0


# ------------------------------------------------------------- diff modes

def diffy_workload(proto, region):
    def writer(rank):
        yield from proto.write(rank, region, [rank], runs_per_page=10,
                               bytes_per_page=400)
        yield from proto.barrier(rank)

    return [writer(r) for r in range(proto.config.total_procs)]


def test_packed_diffs_one_message_per_page():
    machine, proto = make(DW_RF)
    region = proto.allocate("a", 16, home_policy="custom",
                            home_fn=lambda i: (i // 4 + 1) % 4)
    run_workers(machine, diffy_workload(proto, region))
    assert proto.diffs_sent == 16  # every page homes remotely
    assert proto.diff_runs_sent == 0


def test_direct_diffs_one_message_per_run():
    machine, proto = make(GENIMA)
    region = proto.allocate("a", 16, home_policy="custom",
                            home_fn=lambda i: (i // 4 + 1) % 4)
    run_workers(machine, diffy_workload(proto, region))
    assert proto.diffs_sent == 0
    assert proto.diff_runs_sent == 16 * 10  # 10 runs per remote page


def test_direct_diffs_do_not_interrupt_the_home():
    machine, proto = make(GENIMA)
    region = proto.allocate("a", 4, home_policy="node:1")

    def writer():
        yield from proto.write(0, region, [0], runs_per_page=4,
                               bytes_per_page=256)
        yield from proto.lock(0, 0)
        yield from proto.unlock(0, 0)
        yield from proto.barrier(0)

    def others(rank):
        yield from proto.barrier(rank)

    run_workers(machine, [writer()] + [others(r) for r in range(1, 16)])
    assert machine.nodes[1].interrupts_taken == 0
    gid = region.gid(0)
    assert proto._homes[gid].applied.get(0, 0) >= 1


def test_hybrid_skip_for_same_node_waiter():
    """GeNIMA: when the NI shows the next waiter on the same node, the
    release skips diff computation entirely."""
    machine, proto = make(GENIMA)
    region = proto.allocate("a", 4, home_policy="node:2")
    flushed_runs = []

    def holder():
        yield from proto.lock(0, 5)
        yield from proto.write(0, region, [0], runs_per_page=3,
                               bytes_per_page=96)
        # wait long enough for the same-node waiter's forward to arrive
        yield machine.sim.timeout(300.0)
        yield from proto.unlock(0, 5)
        flushed_runs.append(proto.diff_runs_sent)

    def waiter():
        yield machine.sim.timeout(50.0)
        yield from proto.lock(1, 5)  # rank 1: same node as rank 0
        yield from proto.unlock(1, 5)

    run_workers(machine, [holder(), waiter()])
    assert flushed_runs[0] == 0  # no diffs computed at the release


# -------------------------------------------------------------- interrupts

def ladder_workload(proto):
    region = proto.allocate("w", 32, home_policy="round_robin")

    def worker(rank):
        for it in range(2):
            yield from proto.compute(rank, 50.0)
            yield from proto.read(rank, region,
                                  [(rank + k + it) % 32 for k in range(3)])
            yield from proto.write(rank, region, [(rank + it) % 32],
                                   runs_per_page=2, bytes_per_page=128)
            yield from proto.lock(rank, rank % 4)
            yield from proto.unlock(rank, rank % 4)
            yield from proto.barrier(rank)

    return [worker(r) for r in range(proto.config.total_procs)]


def test_genima_is_interrupt_free():
    machine, proto = make(GENIMA)
    run_workers(machine, ladder_workload(proto))
    assert proto.total_interrupts == 0


def test_base_takes_many_interrupts():
    machine, proto = make(BASE)
    run_workers(machine, ladder_workload(proto))
    assert proto.total_interrupts > 50


def test_interrupts_fall_monotonically_along_ladder():
    counts = []
    for feats in PROTOCOL_LADDER:
        machine, proto = make(feats)
        run_workers(machine, ladder_workload(proto))
        counts.append(proto.total_interrupts)
    assert counts[0] > counts[2] > counts[4] == 0
    assert all(a >= b for a, b in zip(counts, counts[1:]))


# ----------------------------------------------------------------- barriers

def test_barrier_blocks_until_all_arrive():
    machine, proto = make(GENIMA)
    release_times = []

    def worker(rank, delay):
        yield machine.sim.timeout(delay)
        yield from proto.barrier(rank)
        release_times.append(machine.sim.now)

    workers = [worker(r, 10.0 * r) for r in range(16)]
    run_workers(machine, workers)
    # nobody leaves before the last arrival at t=150
    assert min(release_times) >= 150.0
    # everyone leaves within a short window of each other
    assert max(release_times) - min(release_times) < 120.0


def test_barrier_reusable_across_phases():
    machine, proto = make(BASE)
    log = []

    def worker(rank):
        for phase in range(3):
            yield from proto.compute(rank, 10.0 * (rank + 1))
            yield from proto.barrier(rank)
            log.append((phase, rank))

    run_workers(machine, [worker(r) for r in range(16)])
    # all of phase k completes before any of phase k+1
    phases = [p for p, _r in log]
    assert phases == sorted(phases)
    assert proto.barriers.crossings == 3


def test_barrier_propagates_writes_between_phases():
    machine, proto = make(GENIMA)
    region = proto.allocate("a", 8, home_policy="node:0")

    def writer():
        yield from proto.write(12, region, [3], runs_per_page=1,
                               bytes_per_page=64)
        yield from proto.barrier(12)

    def reader(rank):
        yield from proto.barrier(rank)
        if rank == 0:
            yield from proto.read(0, region, [3])

    run_workers(machine,
                [writer()] + [reader(r) for r in range(12)]
                + [reader(r) for r in range(13, 16)])
    gid = region.gid(3)
    # reader's node 0 is the home: it recorded the needed version and
    # the diff arrived before the read completed.
    assert proto._homes[gid].applied.get(3, 0) == 1


def test_barrier_protocol_time_recorded():
    machine, proto = make(GENIMA)
    region = proto.allocate("a", 16, home_policy="round_robin")

    def worker(rank):
        yield from proto.write(rank, region, [rank % 16],
                               runs_per_page=1, bytes_per_page=256)
        yield from proto.barrier(rank)

    run_workers(machine, [worker(r) for r in range(16)])
    assert sum(proto.barrier_protocol_us) > 0


# ------------------------------------------------------------------ locks

@pytest.mark.parametrize("feats", [BASE, GENIMA], ids=lambda f: f.name)
def test_protocol_lock_mutual_exclusion(feats):
    machine, proto = make(feats)
    inside = [0]
    max_inside = [0]

    def worker(rank):
        yield machine.sim.timeout(float(rank))
        yield from proto.lock(rank, 9)
        inside[0] += 1
        max_inside[0] = max(max_inside[0], inside[0])
        yield from proto.compute(rank, 20.0)
        inside[0] -= 1
        yield from proto.unlock(rank, 9)

    run_workers(machine, [worker(r) for r in range(16)])
    assert max_inside[0] == 1


def test_base_local_reacquire_is_fast():
    machine, proto = make(BASE)
    t = []

    def worker():
        yield from proto.lock(0, 3)
        yield from proto.unlock(0, 3)
        t0 = machine.sim.now
        yield from proto.lock(0, 3)
        t.append(machine.sim.now - t0)
        yield from proto.unlock(0, 3)

    run_workers(machine, [worker()])
    assert t[0] < 10.0
    assert proto.locks.local_fast_acquires >= 1


def test_flag_sync_charges_acqrel_bucket():
    machine, proto = make(GENIMA)

    def producer():
        yield from proto.release_flag(0, 1)

    def consumer():
        yield machine.sim.timeout(10.0)
        yield from proto.acquire_flag(4, 1)

    run_workers(machine, [producer(), consumer()])
    assert proto.buckets[4].acqrel > 0
    assert proto.buckets[4].lock == 0


# --------------------------------------------------------------- accounting

def test_buckets_account_for_all_elapsed_time():
    machine, proto = make(GENIMA)
    region = proto.allocate("a", 16, home_policy="round_robin")
    end = []

    def worker(rank):
        yield from proto.compute(rank, 100.0)
        yield from proto.read(rank, region, [(rank + 1) % 16])
        yield from proto.write(rank, region, [rank % 16],
                               runs_per_page=1, bytes_per_page=64)
        yield from proto.lock(rank, 0)
        yield from proto.unlock(rank, 0)
        yield from proto.barrier(rank)
        end.append((rank, machine.sim.now))

    run_workers(machine, [worker(r) for r in range(16)])
    for rank, t_end in end:
        total = proto.buckets[rank].total
        assert total == pytest.approx(t_end, rel=0.02), rank


@pytest.mark.parametrize("feats", PROTOCOL_LADDER,
                         ids=[f.name for f in PROTOCOL_LADDER])
def test_radix_local_passes_runtime_checks_on_every_rung(feats):
    """A read fault whose page another rank of the node validated during
    the fault's own trap wait must not fetch again: the redundant
    fetch's ``mark_valid`` would downgrade a third rank's concurrent
    WRITE to READ, which the invariant checker rejects."""
    from repro.apps import Radix
    from repro.runtime import run_svm
    result = run_svm(Radix(), feats, check=True)
    assert result.time_us > 0
