"""Unit tests for queueing primitives (Resource, Store, RateServer)."""

from collections import deque

import pytest

from repro.sim import Resource, SimulationError, Simulator, Store
from repro.sim.resources import RateServer


# ---------------------------------------------------------------- Resource

def test_resource_serializes_holders():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    spans = []

    def worker(tag):
        yield res.request()
        start = sim.now
        yield sim.timeout(10.0)
        res.release()
        spans.append((tag, start, sim.now))

    for i in range(3):
        sim.process(worker(i))
    sim.run()
    assert spans == [(0, 0.0, 10.0), (1, 10.0, 20.0), (2, 20.0, 30.0)]


def test_resource_capacity_two_overlaps():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    done = []

    def worker(tag):
        yield res.request()
        yield sim.timeout(10.0)
        res.release()
        done.append((tag, sim.now))

    for i in range(4):
        sim.process(worker(i))
    sim.run()
    assert done == [(0, 10.0), (1, 10.0), (2, 20.0), (3, 20.0)]


def test_resource_fifo_grant_order():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    order = []

    def worker(tag, arrive):
        yield sim.timeout(arrive)
        yield res.request()
        order.append(tag)
        yield sim.timeout(5.0)
        res.release()

    sim.process(worker("a", 0.0))
    sim.process(worker("b", 1.0))
    sim.process(worker("c", 2.0))
    sim.run()
    assert order == ["a", "b", "c"]


def test_resource_grants_many_waiters_in_arrival_order():
    """Four requesters queue behind one holder and are granted in
    the order they arrived, each waiting for all before it."""
    sim = Simulator()
    res = Resource(sim, capacity=1)
    grants = []
    depth = []

    def worker(tag, arrive):
        yield sim.timeout(arrive)
        yield res.request()
        depth.append(res.queue_len)
        grants.append((tag, sim.now))
        yield sim.timeout(10.0)
        res.release()

    for i, tag in enumerate("abcde"):
        sim.process(worker(tag, float(i)))
    sim.run()
    assert grants == [("a", 0.0), ("b", 10.0), ("c", 20.0), ("d", 30.0),
                      ("e", 40.0)]
    assert depth == [0, 3, 2, 1, 0]
    # b..e arrive at 1..4 and are granted at 10..40.
    assert res.total_wait_time == pytest.approx(9 + 18 + 27 + 36)
    assert res.busy_time == pytest.approx(50.0)


def test_release_idle_resource_raises():
    sim = Simulator()
    res = Resource(sim)
    with pytest.raises(SimulationError):
        res.release()


def test_resource_wait_time_accounting():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def worker():
        yield res.request()
        yield sim.timeout(10.0)
        res.release()

    sim.process(worker())
    sim.process(worker())
    sim.run()
    assert res.total_requests == 2
    assert res.total_wait_time == pytest.approx(10.0)


def test_invalid_capacity_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        Resource(sim, capacity=0)


@pytest.mark.parametrize("cls", [Resource, Store])
@pytest.mark.parametrize("capacity", [1.5, 2.5, "2"])
def test_non_integer_capacity_rejected(cls, capacity):
    with pytest.raises(ValueError, match="integer"):
        cls(Simulator(), capacity)


# ------------------------------------------------------------------- Store

def test_store_put_then_get():
    sim = Simulator()
    store = Store(sim)
    got = []

    def producer():
        yield store.put("x")
        yield store.put("y")

    def consumer():
        a = yield store.get()
        b = yield store.get()
        got.extend([a, b])

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert got == ["x", "y"]


def test_store_get_blocks_until_put():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer():
        item = yield store.get()
        got.append((sim.now, item))

    def producer():
        yield sim.timeout(5.0)
        yield store.put("late")

    sim.process(consumer())
    sim.process(producer())
    sim.run()
    assert got == [(5.0, "late")]


def test_bounded_store_put_blocks_when_full():
    sim = Simulator()
    store = Store(sim, capacity=2)
    timeline = []

    def producer():
        for i in range(4):
            yield store.put(i)
            timeline.append(("put", i, sim.now))

    def consumer():
        yield sim.timeout(10.0)
        for _ in range(4):
            item = yield store.get()
            timeline.append(("get", item, sim.now))
            yield sim.timeout(10.0)

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    # puts 0 and 1 are immediate; put 2 waits for the first get at t=10,
    # put 3 for the second get at t=20.
    assert ("put", 0, 0.0) in timeline
    assert ("put", 1, 0.0) in timeline
    assert ("put", 2, 10.0) in timeline
    assert ("put", 3, 20.0) in timeline
    # put 2 stalls t=0..10; put 3 arrives at t=10 and stalls until t=20.
    assert store.total_put_stall_time == pytest.approx(10.0 + 10.0)


def test_store_fifo_ordering_preserved():
    sim = Simulator()
    store = Store(sim, capacity=8)
    got = []

    def producer():
        for i in range(8):
            yield store.put(i)
            yield sim.timeout(1.0)

    def consumer():
        yield sim.timeout(3.5)
        for _ in range(8):
            item = yield store.get()
            got.append(item)

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert got == list(range(8))


def test_store_admits_blocked_putters_in_arrival_order():
    """Three producers block on a full store; each get admits the
    oldest of them, so items leave in the order they were offered."""
    sim = Simulator()
    store = Store(sim, capacity=1)
    admitted = []
    got = []

    def producer(item, arrive):
        yield sim.timeout(arrive)
        yield store.put(item)
        admitted.append((item, sim.now))

    def consumer():
        yield sim.timeout(10.0)
        for _ in range(4):
            got.append((yield store.get()))
            yield sim.timeout(5.0)

    for i, item in enumerate("wxyz"):
        sim.process(producer(item, float(i)))
    sim.process(consumer())
    sim.run()
    assert got == ["w", "x", "y", "z"]
    assert admitted == [("w", 0.0), ("x", 10.0), ("y", 15.0),
                        ("z", 20.0)]
    # x, y, z were offered at 1, 2, 3.
    assert store.total_put_stall_time == pytest.approx(9 + 13 + 17)
    assert store.max_occupancy == 1


def test_store_serves_waiting_getters_in_arrival_order():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer(tag, arrive):
        yield sim.timeout(arrive)
        got.append((tag, (yield store.get())))

    def producer():
        yield sim.timeout(10.0)
        for item in range(3):
            yield store.put(item)

    for i, tag in enumerate("abc"):
        sim.process(consumer(tag, float(i)))
    sim.process(producer())
    sim.run()
    assert got == [("a", 0), ("b", 1), ("c", 2)]
    assert len(store) == 0 and store.max_occupancy == 0


def test_store_handoff_to_waiting_getter_bypasses_buffer():
    sim = Simulator()
    store = Store(sim, capacity=1)
    got = []

    def consumer():
        item = yield store.get()
        got.append(item)

    def producer():
        yield sim.timeout(1.0)
        yield store.put("direct")

    sim.process(consumer())
    sim.process(producer())
    sim.run()
    assert got == ["direct"]
    assert len(store) == 0


def _fill(use_nowait):
    """A getter waits, then three puts arrive: one hand-off, two
    buffered.  Returns what a caller can observe of the store."""
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer():
        got.append((yield store.get()))

    sim.process(consumer())
    sim.run()
    for item in ("a", "b", "c"):
        if use_nowait:
            assert store.put_nowait(item) is None
        else:
            store.put(item)
    sim.run()
    return (got, len(store), store.total_puts, store.max_occupancy,
            sim.events_dispatched)


def test_store_put_nowait_counts_like_put_without_events():
    got, held, puts, peak, events = _fill(use_nowait=True)
    assert (got, held, puts, peak) == (["a"], 2, 3, 2)
    assert _fill(use_nowait=False) == (got, held, puts, peak, events + 3)


def test_store_put_nowait_raises_on_full_bounded_store():
    sim = Simulator()
    store = Store(sim, capacity=1, name="q")
    store.put_nowait("a")
    with pytest.raises(SimulationError, match="full store 'q'"):
        store.put_nowait("b")
    assert (len(store), store.total_puts) == (1, 1)


def test_store_builds_its_buffer_on_the_first_buffered_item():
    sim = Simulator()
    store = Store(sim, capacity=2)
    assert not isinstance(store._items, deque)
    assert (len(store), store.is_full) == (0, False)
    got = []

    def getter():
        got.append((yield store.get()))

    sim.process(getter())
    sim.run()
    store.put_nowait("a")          # handed to the waiting getter
    sim.run()
    assert got == ["a"] and not isinstance(store._items, deque)
    store.put_nowait("b")
    store.put_nowait("c")
    assert isinstance(store._items, deque)
    assert (len(store), store.is_full, store.max_occupancy) == (2, True, 2)
    ev = store.get()
    assert (ev.value, len(store), store.is_full) == ("b", 1, False)


def test_granted_requests_combine_under_any_of_and_all_of():
    sim = Simulator()
    res = Resource(sim)
    store = Store(sim)
    store.put_nowait("x")
    got = []

    def proc():
        got.append((yield sim.all_of([res.request(), store.put("y")])))
        got.append((yield sim.any_of([store.get(), sim.timeout(5.0)])))

    sim.process(proc())
    sim.run()
    assert got == [[None, None], "x"]


def test_store_max_occupancy_tracked():
    sim = Simulator()
    store = Store(sim, capacity=16)

    def producer():
        for i in range(5):
            yield store.put(i)

    sim.process(producer())
    sim.run()
    assert store.max_occupancy == 5


# -------------------------------------------------------------- RateServer

def test_rate_server_serializes_transfers():
    # Each transfer holds the station for overhead + size / bandwidth,
    # the way the NIC loops hold it inline.
    sim = Simulator()
    link = RateServer(sim, bandwidth_mbps=100.0, overhead_us=2.0)
    done = []

    def sender(tag, size):
        link.total_bytes += size
        yield link.station.request()
        try:
            yield sim.timeout(link.overhead + size / link.bandwidth)
        finally:
            link.station.release()
        done.append((tag, sim.now))

    sim.process(sender("a", 1000))
    sim.process(sender("b", 1000))
    sim.run()
    assert done == [("a", 12.0), ("b", 24.0)]
    assert link.total_bytes == 2000
    assert not link.busy and link.queue_len == 0


def test_rate_server_rejects_nonpositive_bandwidth():
    sim = Simulator()
    with pytest.raises(ValueError):
        RateServer(sim, bandwidth_mbps=0.0)


@pytest.mark.parametrize("bandwidth,overhead,word", [
    (float("nan"), 0.0, "bandwidth"), (float("inf"), 0.0, "bandwidth"),
    (10.0, -3.0, "overhead"), (10.0, float("nan"), "overhead"),
    (10.0, float("inf"), "overhead")])
def test_rate_server_rejects_non_finite_rates_and_bad_overheads(
        bandwidth, overhead, word):
    with pytest.raises(ValueError, match=word):
        RateServer(Simulator(), bandwidth_mbps=bandwidth,
                   overhead_us=overhead)
