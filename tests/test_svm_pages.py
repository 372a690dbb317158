"""Unit tests for regions, the page directory, page tables, mprotect."""

import random
from typing import Optional

import pytest
from hypothesis import example, given, strategies as st

from repro.hw import MachineConfig
from repro.svm import (DiffShape, HomePage, Interval, IntervalLog,
                       NodePageTable, PageAccess, PageDirectory, VectorClock)
from repro.svm.mprotect import MprotectModel


CFG = MachineConfig()


# --------------------------------------------------------------- directory

def test_blocked_home_policy_partitions_contiguously():
    d = PageDirectory(CFG)
    region = d.allocate("a", 16, home_policy="blocked")
    assert region.homes == [0] * 4 + [1] * 4 + [2] * 4 + [3] * 4


def test_round_robin_home_policy():
    d = PageDirectory(CFG)
    region = d.allocate("a", 8, home_policy="round_robin")
    assert region.homes == [0, 1, 2, 3, 0, 1, 2, 3]


def test_single_node_home_policy():
    d = PageDirectory(CFG)
    region = d.allocate("a", 5, home_policy="node:2")
    assert region.homes == [2] * 5


def test_custom_home_policy():
    d = PageDirectory(CFG)
    region = d.allocate("a", 6, home_policy="custom",
                        home_fn=lambda i: (i * 2) % 4)
    assert region.homes == [0, 2, 0, 2, 0, 2]


def test_custom_policy_requires_fn():
    d = PageDirectory(CFG)
    with pytest.raises(ValueError):
        d.allocate("a", 4, home_policy="custom")


def test_invalid_home_node_rejected():
    d = PageDirectory(CFG)
    with pytest.raises(ValueError):
        d.allocate("a", 4, home_policy="node:9")


def test_duplicate_region_name_rejected():
    d = PageDirectory(CFG)
    d.allocate("a", 4)
    with pytest.raises(ValueError):
        d.allocate("a", 4)


def test_gids_are_globally_unique_across_regions():
    d = PageDirectory(CFG)
    a = d.allocate("a", 10)
    b = d.allocate("b", 10)
    assert {a.gid(i) for i in range(10)}.isdisjoint(
        b.gid(i) for i in range(10))
    assert d.total_pages == 20


def test_region_of_and_home_of():
    d = PageDirectory(CFG)
    a = d.allocate("a", 8, home_policy="round_robin")
    gid = a.gid(5)
    assert d.region_of(gid) is a
    assert d.home_of(gid) == 1  # 5 % 4


@pytest.mark.parametrize("policy", ["blocked", "first_touch"])
def test_home_of_rejects_gids_outside_every_region(policy):
    d = PageDirectory(CFG)
    d.allocate("a", 3, home_policy=policy)
    d.allocate("b", 5, home_policy=policy)
    for gid in (-1, d.total_pages):
        with pytest.raises(KeyError):
            d.region_of(gid)
        with pytest.raises(KeyError):
            d.home_of(gid)
    with pytest.raises(KeyError):
        PageDirectory(CFG).home_of(0)


def test_home_of_finds_every_gid_across_regions():
    d = PageDirectory(CFG)
    regions = [d.allocate(name, n, home_policy="round_robin")
               for name, n in (("a", 1), ("b", 6), ("c", 1), ("d", 9))]
    for region in regions:
        for index in range(region.n_pages):
            gid = region.gid(index)
            assert d.region_of(gid) is region
            assert d.home_of(gid) == region.homes[index]


def test_home_of_sees_first_touch_and_migration_writes():
    d = PageDirectory(CFG)
    d.allocate("a", 2)
    ft = d.allocate("ft", 4, home_policy="first_touch")
    gid = ft.gid(2)
    assert d.home_of(gid) is None
    ft.homes[2] = 3      # first touch by node 3
    assert d.home_of(gid) == 3
    ft.homes[2] = 1      # migrated to node 1
    assert d.home_of(gid) == 1
    assert d.home_of(ft.gid(1)) is None


def test_region_gid_bounds_checked():
    d = PageDirectory(CFG)
    a = d.allocate("a", 4)
    with pytest.raises(IndexError):
        a.gid(4)
    with pytest.raises(KeyError):
        d.region_of(99)


def test_concrete_region_has_data_pages():
    d = PageDirectory(CFG)
    a = d.allocate("a", 3, concrete=True)
    assert len(a.data) == 3
    assert all(len(page) == CFG.page_size for page in a.data)
    b = d.allocate("b", 3)
    assert b.data is None


# ---------------------------------------------------------------- HomePage

def test_home_page_satisfies():
    hp = HomePage()
    hp.applied = {0: 3, 2: 1}
    assert hp.satisfies({0: 3})
    assert hp.satisfies({0: 2, 2: 1})
    assert not hp.satisfies({0: 4})
    assert not hp.satisfies({1: 1})
    assert hp.satisfies({})


def test_home_page_snapshot_is_stable():
    hp = HomePage()
    hp.applied = {0: 1}
    snap = hp.snapshot()
    hp.applied[0] = 5
    assert snap == {0: 1}
    assert HomePage.snapshot_satisfies(snap, {0: 1})
    assert not HomePage.snapshot_satisfies(snap, {0: 2})


# ------------------------------------------------------------ NodePageTable

def make_table():
    return NodePageTable(0, CFG)


def test_pages_start_invalid():
    t = make_table()
    assert t.access(123) is PageAccess.INVALID


def test_mark_valid_read_and_write():
    t = make_table()
    t.mark_valid(1)
    assert t.access(1) is PageAccess.READ
    t.mark_valid(2, writable=True)
    assert t.access(2) is PageAccess.WRITE


def test_first_write_twins_second_does_not():
    t = make_table()
    t.mark_valid(1)
    shape = DiffShape(runs=1, bytes_modified=64)
    assert t.record_write(1, shape) is True
    assert t.record_write(1, shape) is False
    assert t.access(1) is PageAccess.WRITE


def test_repeat_writes_merge_shapes():
    t = make_table()
    t.record_write(1, DiffShape(runs=2, bytes_modified=64))
    t.record_write(1, DiffShape(runs=5, bytes_modified=100))
    assert t.dirty_pages[1].runs == 5
    assert t.dirty_pages[1].bytes_modified == 164


def test_take_dirty_resets_and_downgrades():
    t = make_table()
    t.record_write(1, DiffShape(runs=1, bytes_modified=32))
    t.record_write(2, DiffShape(runs=1, bytes_modified=32))
    dirty = t.take_dirty()
    assert set(dirty) == {1, 2}
    assert t.dirty_pages == {}
    assert t.access(1) is PageAccess.READ
    # next write twins again
    assert t.record_write(1, DiffShape(runs=1, bytes_modified=32)) is True


def _notice(log, clock, gid, writer, interval):
    """Close ``writer``'s intervals up to ``interval``, the last one
    writing ``gid``, and advance ``clock`` over them: one write notice
    of ``gid`` applied."""
    for index in range(log.current_index(writer) + 1, interval):
        log.append(Interval(writer, index, ()))
    log.append(Interval(writer, interval, (gid,)))
    clock[writer] = interval


def test_invalidate_updates_needed_and_state():
    t = make_table()
    log, clock = IntervalLog(CFG.nodes), VectorClock(CFG.nodes)
    t.mark_valid(7)
    _notice(log, clock, 7, writer=2, interval=4)
    changed = t.invalidate(7)
    assert changed is True
    assert t.access(7) is PageAccess.INVALID
    assert log.needed(7, clock, t.node) == {2: 4}


def test_invalidate_already_invalid_needs_no_mprotect():
    t = make_table()
    log, clock = IntervalLog(CFG.nodes), VectorClock(CFG.nodes)
    _notice(log, clock, 7, writer=1, interval=1)
    assert t.invalidate(7) is False
    assert log.needed(7, clock, t.node) == {1: 1}


def test_invalidate_at_home_keeps_access():
    t = make_table()
    log, clock = IntervalLog(CFG.nodes), VectorClock(CFG.nodes)
    t.mark_valid(7)
    _notice(log, clock, 7, writer=2, interval=1)
    changed = t.invalidate(7, is_home=True)
    assert changed is False
    assert t.access(7) is PageAccess.READ
    assert log.needed(7, clock, t.node) == {2: 1}


def test_needed_versions_keep_maximum():
    # Writer 1's intervals 3 and 5 both wrote page 7: a clock past both
    # needs the later one.
    log, clock = IntervalLog(CFG.nodes), VectorClock(CFG.nodes)
    _notice(log, clock, 7, writer=1, interval=3)
    _notice(log, clock, 7, writer=1, interval=5)
    assert log.needed(7, clock, 0) == {1: 5}


def test_needed_versions_returns_a_copy():
    # The protocol parks these dicts in its home waiters across yields.
    log, clock = IntervalLog(CFG.nodes), VectorClock(CFG.nodes)
    _notice(log, clock, 7, writer=1, interval=2)
    needed = log.needed(7, clock, 0)
    needed[1] = 9
    needed[3] = 1
    assert log.needed(7, clock, 0) == {1: 2}
    log.needed(8, clock, 0)[0] = 1
    assert log.needed(8, clock, 0) == {}


class NeededReference:
    """Per-node needed versions, merged one write notice at a time.

    The reference that :meth:`IntervalLog.needed` must agree with: each
    node keeps, per page, the highest interval of every writer whose
    write notice it applied, home or not.
    """

    def __init__(self, nodes):
        self._needed = [{} for _ in range(nodes)]

    def apply(self, node, gid, writer, interval):
        needed = self._needed[node].setdefault(gid, {})
        if needed.get(writer, 0) < interval:
            needed[writer] = interval

    def needed_versions(self, node, gid):
        return dict(self._needed[node].get(gid, {}))


@pytest.mark.parametrize("seed", range(6))
def test_interval_log_needed_matches_per_node_merge(seed):
    rng = random.Random(seed)
    nodes, pages = 4, range(6)
    log = IntervalLog(nodes)
    clocks = [VectorClock(nodes) for _ in range(nodes)]
    reference = NeededReference(nodes)
    written = {}  # (gid, writer) -> the writer's intervals that wrote gid
    seen = set()
    for _step in range(400):
        node = rng.randrange(nodes)
        if rng.random() < 0.4:
            # Close an interval; the node's own writes are never needed.
            index = log.current_index(node) + 1
            interval = Interval(node, index, tuple(sorted(
                rng.sample(pages, rng.randint(0, 3)))))
            log.append(interval)
            for gid in interval.pages:
                written.setdefault((gid, node), []).append(index)
            clocks[node][node] = index
        else:
            # Acquire from another node, or a barrier to the newest
            # intervals: apply every notice in (have, want] as the
            # protocol's notice loop does, home pages included.
            if rng.random() < 0.8:
                want = clocks[node].merged(clocks[rng.randrange(nodes)])
            else:
                want = VectorClock(values=[log.current_index(n)
                                           for n in range(nodes)])
            for writer, interval in log.windows(clocks[node], want):
                if writer == node:
                    continue
                for gid in interval.pages:
                    if gid % nodes == node:
                        seen.add("home")
                    reference.apply(node, gid, writer, interval.index)
            clocks[node].merge(want)
        for n in range(nodes):
            for gid in pages:
                got = log.needed(gid, clocks[n], n)
                assert got == reference.needed_versions(n, gid), (n, gid)
                assert list(got) == sorted(got)
                if (gid, n) in written:
                    seen.add("own")
                if len(got) > 1:
                    seen.add("interleaved")
                if any(w != n and written[gid, w][0] > clocks[n][w]
                       for w in range(nodes) if (gid, w) in written):
                    seen.add("beyond clock")
    assert seen == {"own", "home", "interleaved", "beyond clock"}


class _PageEntry:
    """One (node, page) state of the reference table."""

    __slots__ = ("access", "twinned", "dirty")

    def __init__(self):
        self.access = PageAccess.INVALID
        self.twinned = False
        self.dirty: Optional[DiffShape] = None


class EntryPageTable:
    """Page table with one entry object per touched (node, page).

    The reference that ``NodePageTable``'s two maps must agree with:
    every public method gives the same result and the same
    ``on_transition`` calls, in the same order.
    """

    def __init__(self, node):
        self.node = node
        self._entries = {}
        self.dirty_pages = {}
        self.on_transition = None
        self.read_faults = 0
        self.write_faults = 0
        self.invalidations = 0

    def entry(self, gid):
        return self._entries.setdefault(gid, _PageEntry())

    def access(self, gid):
        e = self._entries.get(gid)
        return e.access if e is not None else PageAccess.INVALID

    def _transition(self, gid, old, new, why):
        if self.on_transition is not None and old is not new:
            self.on_transition(self.node, gid, old, new, why)

    def mark_valid(self, gid, writable=False, why="fault"):
        e = self.entry(gid)
        old = e.access
        e.access = PageAccess.WRITE if writable else PageAccess.READ
        self._transition(gid, old, e.access, why)

    def record_write(self, gid, shape):
        e = self.entry(gid)
        first = not e.twinned
        e.twinned = True
        old = e.access
        e.access = PageAccess.WRITE
        self._transition(gid, old, e.access, "write")
        if gid in self.dirty_pages:
            self.dirty_pages[gid] = self.dirty_pages[gid].merge(shape)
        else:
            self.dirty_pages[gid] = shape
        e.dirty = self.dirty_pages[gid]
        return first

    def take_dirty(self):
        dirty = self.dirty_pages
        self.dirty_pages = {}
        for gid in dirty:
            e = self.entry(gid)
            e.twinned = False
            e.dirty = None
            if e.access is PageAccess.WRITE:
                e.access = PageAccess.READ
                self._transition(gid, PageAccess.WRITE, PageAccess.READ,
                                 "close")
        return dirty

    def invalidate(self, gid, is_home=False):
        e = self.entry(gid)
        self.invalidations += 1
        if is_home or e.access is PageAccess.INVALID:
            return False
        old = e.access
        e.access = PageAccess.INVALID
        self._transition(gid, old, PageAccess.INVALID, "invalidate")
        return True


PAGES = range(10)


def _random_op(rng):
    gid = rng.choice(PAGES)
    kind = rng.choice(("mark_valid", "record_write", "record_write",
                       "take_dirty", "invalidate", "invalidate",
                       "invalidate"))
    if kind == "mark_valid":
        return kind, (gid, rng.random() < 0.3,
                      rng.choice(("fault", "migrate")))
    if kind == "record_write":
        runs = rng.randint(1, 4)
        return kind, (gid, DiffShape(runs=runs,
                                     bytes_modified=runs * rng.choice(
                                         (4, 8, 64))))
    if kind == "take_dirty":
        return kind, ()
    return kind, (gid, rng.random() < 0.25)


@pytest.mark.parametrize("seed", range(8))
def test_page_table_matches_entry_reference(seed):
    rng = random.Random(seed)
    table, reference = NodePageTable(3, CFG), EntryPageTable(3)
    calls = {}
    for t in (table, reference):
        log = calls[t] = []
        t.on_transition = lambda *args, log=log: log.append(args)
    for _step in range(600):
        kind, args = _random_op(rng)
        got = getattr(table, kind)(*args)
        want = getattr(reference, kind)(*args)
        assert got == want, (kind, args)
        assert calls[table] == calls[reference]
        assert table.dirty_pages == reference.dirty_pages
        for gid in PAGES:
            assert table.access(gid) is reference.access(gid)
    assert table.invalidations == reference.invalidations > 0
    assert {name for _n, _g, _o, _new, name in calls[reference]} == {
        "fault", "migrate", "write", "close", "invalidate"}


# ----------------------------------------------------------------- mprotect

def coalesce_pages(pages):
    """Group page ids into maximal runs of consecutive ids.

    Returns ``[(first_page, count), ...]`` sorted ascending; duplicate
    ids are collapsed.  The sorting reference that
    ``MprotectModel.protect``'s one-pass run count must agree with.
    """
    runs = []
    for page in sorted(set(pages)):
        if runs and page == runs[-1][0] + runs[-1][1]:
            runs[-1] = (runs[-1][0], runs[-1][1] + 1)
        else:
            runs.append((page, 1))
    return runs


def test_coalesce_pages_runs():
    assert coalesce_pages([1, 2, 3, 7, 8, 10]) == [(1, 3), (7, 2), (10, 1)]
    assert coalesce_pages([]) == []
    assert coalesce_pages([5, 5, 5]) == [(5, 1)]


@given(st.lists(st.integers(0, 200), max_size=50))
def test_coalesce_covers_exactly_the_unique_pages(pages):
    runs = coalesce_pages(pages)
    covered = []
    for first, count in runs:
        covered.extend(range(first, first + count))
    assert covered == sorted(set(pages))


def test_mprotect_coalescing_is_cheaper():
    m = MprotectModel(CFG)
    contiguous = m.protect(0, range(100))
    scattered = m.protect(1, range(0, 200, 2))
    assert contiguous < scattered
    # one call + per-page increments
    assert contiguous == pytest.approx(
        CFG.mprotect_call_us + 99 * CFG.mprotect_page_us)
    assert scattered == pytest.approx(100 * CFG.mprotect_call_us)


def test_mprotect_accounting():
    m = MprotectModel(CFG)
    cost = m.protect(1, [1, 2, 3])
    assert cost > 0
    assert m.total_us[1] == pytest.approx(cost)
    assert m.calls[1] == 1
    assert m.pages_protected[1] == 3
    assert m.grand_total_us == pytest.approx(cost)


def test_mprotect_empty_is_free():
    m = MprotectModel(CFG)
    assert m.protect(0, []) == 0.0
    assert m.calls[0] == 0


@given(st.lists(st.integers(0, 60), max_size=40))
@example([])
@example([5, 5, 5])
@example([9, 3, 4, 3, 8])
@example([10, 2, 1, 11, 12, 2, 40])
def test_protect_accounting_equals_cost_us(pages):
    # Unsorted, duplicate and empty page sets: one accounting pass must
    # agree with the reference coalesce_pages runs, in any page order.
    m = MprotectModel(CFG)
    runs = coalesce_pages(pages)
    expected = (len(runs) * CFG.mprotect_call_us
                + (len(set(pages)) - len(runs)) * CFG.mprotect_page_us)
    assert m.protect(2, iter(pages)) == expected
    assert m.protect(3, reversed(pages)) == expected
    assert m.total_us[2] == expected
    assert m.calls[2] == len(runs)
    assert m.pages_protected[2] == sum(c for _f, c in runs)
