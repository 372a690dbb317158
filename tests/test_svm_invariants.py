"""Property-based whole-protocol invariants.

Random small workloads (reads, writes, locks, flags, barriers over a
shared region) are run to completion under randomly chosen protocol
variants; afterwards the protocol's global state must satisfy the LRC
invariants the implementation relies on.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.hw import Machine, MachineConfig
from repro.svm import PROTOCOL_LADDER, HLRCProtocol, VectorClock


N_PAGES = 12

# one op per tuple: (kind, page-or-lock, size-ish)
ops = st.lists(
    st.tuples(st.sampled_from(["read", "write", "lock", "compute"]),
              st.integers(0, N_PAGES - 1),
              st.integers(1, 6)),
    min_size=1, max_size=8)

workloads = st.lists(ops, min_size=16, max_size=16)  # one op-list per rank
protocol_idx = st.integers(0, len(PROTOCOL_LADDER) - 1)


def run_workload(proto, machine, per_rank_ops, region):
    done = []
    end_times = {}

    def worker(rank, my_ops):
        for kind, page, amount in my_ops:
            if kind == "read":
                yield from proto.read(rank, region,
                                      [page, (page + 1) % N_PAGES])
            elif kind == "write":
                yield from proto.write(rank, region, [page],
                                       runs_per_page=amount,
                                       bytes_per_page=amount * 64)
            elif kind == "lock":
                yield from proto.lock(rank, page % 4)
                yield from proto.compute(rank, float(amount))
                yield from proto.unlock(rank, page % 4)
            else:
                yield from proto.compute(rank, float(amount) * 5)
        yield from proto.barrier(rank)
        end_times[rank] = machine.sim.now
        done.append(rank)

    for rank, my_ops in enumerate(per_rank_ops):
        machine.sim.process(worker(rank, my_ops))
    machine.run()
    assert len(done) == 16, "workload did not complete (deadlock?)"
    return end_times


@settings(max_examples=30, deadline=None)
@given(workloads, protocol_idx)
def test_protocol_invariants_after_random_workload(per_rank_ops, pidx):
    feats = PROTOCOL_LADDER[pidx]
    machine = Machine(MachineConfig())
    proto = HLRCProtocol(machine, feats)
    region = proto.allocate("inv", N_PAGES, home_policy="round_robin")
    run_workload(proto, machine, per_rank_ops, region)

    nodes = machine.config.nodes

    # I1: the final barrier leaves no unflushed intervals anywhere.
    assert all(not pending for pending in proto.pending_flush)

    # I2: after the closing barrier, every node's clock covers every
    # closed interval of every node.
    for node in range(nodes):
        for writer in range(nodes):
            assert proto.node_clock[node][writer] \
                == proto.interval_log.current_index(writer), (node, writer)

    # I3: every closed interval's diffs have been applied at the homes.
    closed = VectorClock(values=[proto.interval_log.current_index(node)
                                 for node in range(nodes)])
    for _node, interval in proto.interval_log.windows(VectorClock(nodes),
                                                      closed):
        for gid in interval.pages:
            home = proto.directory.home_of(gid)
            if home == interval.node:
                continue
            hp = proto._homes.get(gid)
            assert hp is not None and \
                hp.applied.get(interval.node, 0) >= interval.index, \
                (gid, interval)

    # I4: no parked waiters of any kind remain.
    assert not any(proto._wn_waiters[n] for n in range(nodes))
    assert not proto._home_waiters
    assert not proto._inflight_fetch

    # I5: a node's dirty set is empty and dirtied pages were downgraded.
    for node in range(nodes):
        assert proto.tables[node].dirty_pages == {}

    # I6: hardware-level conservation: every packet injected anywhere
    # was received somewhere.
    sent = sum(nic.packets_sent for nic in machine.nics)
    received = sum(nic.packets_received for nic in machine.nics)
    assert sent == received


@settings(max_examples=15, deadline=None)
@given(workloads)
def test_runs_are_deterministic(per_rank_ops):
    """Same seed + same workload => identical final time and stats."""
    results = []
    for _ in range(2):
        machine = Machine(MachineConfig(seed=99))
        proto = HLRCProtocol(machine, PROTOCOL_LADDER[4])
        region = proto.allocate("det", N_PAGES,
                                home_policy="round_robin")
        run_workload(proto, machine, per_rank_ops, region)
        results.append((machine.sim.now, proto.page_fetches,
                        proto.diff_runs_sent, proto.wn_messages,
                        tuple(c.values for c in proto.node_clock)))
    assert results[0] == results[1]


@settings(max_examples=15, deadline=None)
@given(workloads, protocol_idx)
def test_breakdowns_are_complete_and_nonnegative(per_rank_ops, pidx):
    machine = Machine(MachineConfig())
    proto = HLRCProtocol(machine, PROTOCOL_LADDER[pidx])
    region = proto.allocate("bk", N_PAGES, home_policy="round_robin")
    end_times = run_workload(proto, machine, per_rank_ops, region)
    for rank in range(16):
        b = proto.buckets[rank]
        for name, value in b.as_dict().items():
            assert value >= 0.0, (rank, name)
        # each rank's charged time equals its own elapsed time (the
        # simulation keeps running briefly to drain async traffic)
        assert b.total == pytest.approx(end_times[rank], rel=0.05), rank
