"""Deeper tests of SVM synchronization: interrupt locks, NI locks under
randomized schedules (hypothesis), barriers, flags."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.sanitizer import Sanitizer
from repro.hw import Machine, MachineConfig
from repro.sim import Tracer
from repro.svm import BASE, GENIMA, HLRCProtocol
from repro.vmmc import NILockManager, VMMC


def make(feats):
    machine = Machine(MachineConfig())
    return machine, HLRCProtocol(machine, feats)


def run_all(machine, gens):
    done = []

    def wrap(g, i):
        yield from g
        done.append(i)

    for i, g in enumerate(gens):
        machine.sim.process(wrap(g, i))
    machine.run()
    assert len(done) == len(gens)


# ------------------------------------------------- randomized lock schedules

schedules = st.lists(
    st.tuples(st.integers(0, 15),        # rank
              st.integers(0, 3),         # lock id
              st.integers(0, 500),       # start delay (us)
              st.integers(1, 80)),       # hold time (us)
    min_size=1, max_size=24)

#: the same schedules, crowded onto two locks in a short window so that
#: requests queue behind an owner and releases hand off to a queue head.
contended = st.lists(
    st.tuples(st.integers(0, 15), st.integers(0, 1), st.integers(0, 100),
              st.integers(1, 80)),
    min_size=2, max_size=24)


def assert_mutual_exclusion(feats, schedule):
    machine, proto = make(feats)
    inside = {}
    worst = {}

    def worker(rank, lock_id, start, hold):
        yield machine.sim.timeout(float(start))
        yield from proto.lock(rank, lock_id)
        inside[lock_id] = inside.get(lock_id, 0) + 1
        worst[lock_id] = max(worst.get(lock_id, 0), inside[lock_id])
        yield machine.sim.timeout(float(hold))
        inside[lock_id] -= 1
        yield from proto.unlock(rank, lock_id)

    run_all(machine, [worker(*item) for item in schedule])
    assert all(v == 1 for v in worst.values())


# Spread schedules rarely put two requesters behind one owner, so each
# example also runs a crowded schedule, which nearly always does.

@settings(max_examples=25, deadline=None)
@given(schedules, contended)
def test_interrupt_locks_mutual_exclusion_random(spread, crowded):
    for schedule in (spread, crowded):
        assert_mutual_exclusion(BASE, schedule)


@settings(max_examples=25, deadline=None)
@given(schedules, contended)
def test_ni_locks_mutual_exclusion_random(spread, crowded):
    for schedule in (spread, crowded):
        assert_mutual_exclusion(GENIMA, schedule)


@pytest.mark.parametrize("feats", [GENIMA, BASE], ids=lambda f: f.name)
@settings(max_examples=15, deadline=None)
@given(spread=schedules, crowded=contended)
def test_locks_never_starve_random(feats, spread, crowded):
    """Every acquire eventually succeeds (run_all asserts completion)."""
    for schedule in (spread, crowded):
        machine, proto = make(feats)

        def worker(rank, lock_id, start, hold):
            yield machine.sim.timeout(float(start))
            yield from proto.lock(rank, lock_id)
            yield machine.sim.timeout(float(hold))
            yield from proto.unlock(rank, lock_id)
            # and a second round through the same lock
            yield from proto.lock(rank, lock_id)
            yield from proto.unlock(rank, lock_id)

        run_all(machine, [worker(*item) for item in schedule])


@pytest.mark.parametrize("feats", [GENIMA, BASE], ids=lambda f: f.name)
@settings(max_examples=25, deadline=None)
@given(schedule=contended)
def test_lock_queue_invariant_random(feats, schedule):
    """Both placements of the lock queue grant only from the token's
    node, always to the queue head, one grant per acquire: the
    sanitizer's lock-queue check finds nothing in their traces."""
    tracer = Tracer()
    machine = Machine(MachineConfig())
    proto = HLRCProtocol(machine, feats, tracer=tracer)

    def worker(rank, lock_id, start, hold):
        yield machine.sim.timeout(float(start))
        yield from proto.lock(rank, lock_id)
        yield machine.sim.timeout(float(hold))
        yield from proto.unlock(rank, lock_id)

    run_all(machine, [worker(*item) for item in schedule])
    assert Sanitizer(["lock-queue"]).run(iter(tracer)) == []


# --------------------------------------------------------- NI lock details

def test_ni_lock_grant_carries_latest_release_ts():
    machine = Machine(MachineConfig())
    vmmc = VMMC(machine)
    lm = NILockManager(vmmc)
    sim = machine.sim
    seen = []

    def chain():
        ts = yield from lm.acquire(0, 0)
        seen.append(ts)
        yield from lm.release(0, 0, ts="A")
        ts = yield from lm.acquire(1, 0)
        seen.append(ts)
        yield from lm.release(1, 0, ts="B")
        ts = yield from lm.acquire(2, 0)
        seen.append(ts)
        yield from lm.release(2, 0, ts="C")

    sim.process(chain())
    sim.run()
    assert seen == [None, "A", "B"]


def test_ni_lock_local_regrant_skips_network():
    machine = Machine(MachineConfig())
    vmmc = VMMC(machine)
    lm = NILockManager(vmmc)
    sim = machine.sim

    def worker():
        for _ in range(5):
            yield from lm.acquire(2, 1)
            yield from lm.release(2, 1)

    sim.process(worker())
    sim.run()
    # first acquire goes through the home; the rest are local regrants
    assert lm.local_grants >= 4
    carried = machine.network.packets_carried
    assert carried <= 3


# -------------------------------------------------------------------- flags

def test_flag_versions_accumulate():
    machine, proto = make(GENIMA)
    order = []

    def producer():
        for i in range(3):
            yield machine.sim.timeout(100.0)
            yield from proto.release_flag(0, 5)

    def consumer():
        for i in range(3):
            yield from proto.acquire_flag(12, 5)
            order.append(machine.sim.now)

    run_all(machine, [producer(), consumer()])
    assert len(order) == 3
    assert order == sorted(order)
    assert order[0] >= 100.0


def test_flag_release_before_acquire_is_not_lost():
    machine, proto = make(BASE)
    got = []

    def producer():
        yield from proto.release_flag(0, 9)

    def late_consumer():
        yield machine.sim.timeout(500.0)
        yield from proto.acquire_flag(8, 9)
        got.append(machine.sim.now)

    run_all(machine, [producer(), late_consumer()])
    assert got and got[0] >= 500.0


def test_flag_carries_consistency():
    """Data written before release_flag is visible (home current)
    after acquire_flag — the release semantics of flags."""
    machine, proto = make(BASE)
    region = proto.allocate("f", 4, home_policy="node:3")

    def producer():
        yield from proto.write(0, region, [1], runs_per_page=1,
                               bytes_per_page=64)
        yield from proto.release_flag(0, 2)

    def consumer():
        yield from proto.acquire_flag(8, 2)
        yield from proto.read(8, region, [1])

    run_all(machine, [producer(), consumer()])
    gid = region.gid(1)
    assert proto._homes[gid].applied.get(0, 0) >= 1
    assert proto.interval_log.needed(
        gid, proto.node_clock[2], 2).get(0, 0) >= 1


# ------------------------------------------------------------------ barriers

def test_barrier_interleaves_with_locks_without_deadlock():
    machine, proto = make(BASE)
    region = proto.allocate("b", 8, home_policy="round_robin")

    def worker(rank):
        for it in range(3):
            yield from proto.lock(rank, it % 2)
            yield from proto.write(rank, region, [(rank + it) % 8],
                                   runs_per_page=1, bytes_per_page=64)
            yield from proto.unlock(rank, it % 2)
            yield from proto.barrier(rank)

    run_all(machine, [worker(r) for r in range(16)])
    assert proto.barriers.crossings == 3


def test_barrier_episode_cleanup():
    machine, proto = make(GENIMA)

    def worker(rank):
        for _ in range(5):
            yield from proto.barrier(rank)

    run_all(machine, [worker(r) for r in range(16)])
    assert proto.barriers._episodes == {}
    assert proto.barriers.crossings == 5


def test_barrier_global_clock_covers_all_closed_intervals():
    machine, proto = make(GENIMA)
    region = proto.allocate("c", 16, home_policy="round_robin")

    def worker(rank):
        yield from proto.write(rank, region, [rank % 16],
                               runs_per_page=1, bytes_per_page=32)
        yield from proto.barrier(rank)

    run_all(machine, [worker(r) for r in range(16)])
    # after the barrier every node's clock covers every closed interval
    for node in range(4):
        for writer in range(4):
            assert proto.node_clock[node][writer] \
                == proto.interval_log.current_index(writer)
