"""Unit + property tests for vector clocks, intervals, write notices."""

import pytest
from hypothesis import given, strategies as st

from repro.svm import Interval, IntervalLog, VectorClock


# ------------------------------------------------------------- VectorClock

def test_clock_starts_at_zero():
    vc = VectorClock(4)
    assert vc.values == (0, 0, 0, 0)


def test_clock_set_and_get():
    vc = VectorClock(4)
    vc[2] = 5
    assert vc[2] == 5
    assert vc.values == (0, 0, 5, 0)


def test_clock_entries_never_decrease():
    vc = VectorClock(4)
    vc[1] = 3
    with pytest.raises(ValueError):
        vc[1] = 2


def test_clock_merge_is_pointwise_max():
    a = VectorClock(values=[1, 5, 2, 0])
    b = VectorClock(values=[3, 1, 2, 4])
    a.merge(b)
    assert a.values == (3, 5, 2, 4)


def test_clock_merge_size_mismatch():
    with pytest.raises(ValueError):
        VectorClock(3).merge(VectorClock(4))


def test_clock_dominates():
    a = VectorClock(values=[2, 2, 2])
    b = VectorClock(values=[1, 2, 2])
    assert a.dominates(b)
    assert not b.dominates(a)
    assert a.dominates(a)


def test_clock_copy_is_independent():
    a = VectorClock(values=[1, 2])
    b = a.copy()
    b[0] = 9
    assert a[0] == 1


clocks = st.lists(st.integers(0, 100), min_size=1, max_size=8)


@given(clocks, clocks)
def test_merge_commutative(xs, ys):
    n = min(len(xs), len(ys))
    a1 = VectorClock(values=xs[:n])
    b1 = VectorClock(values=ys[:n])
    m1 = a1.merged(b1)
    m2 = b1.merged(a1)
    assert m1 == m2


@given(clocks)
def test_merge_idempotent(xs):
    a = VectorClock(values=xs)
    assert a.merged(a) == a


@given(clocks, clocks, clocks)
def test_merge_associative(xs, ys, zs):
    n = min(len(xs), len(ys), len(zs))
    a = VectorClock(values=xs[:n])
    b = VectorClock(values=ys[:n])
    c = VectorClock(values=zs[:n])
    assert a.merged(b).merged(c) == a.merged(b.merged(c))


@given(clocks, clocks)
def test_merge_dominates_both(xs, ys):
    n = min(len(xs), len(ys))
    a = VectorClock(values=xs[:n])
    b = VectorClock(values=ys[:n])
    m = a.merged(b)
    assert m.dominates(a) and m.dominates(b)


@given(clocks)
def test_dominates_reflexive(xs):
    a = VectorClock(values=xs)
    assert a.dominates(a)


@given(clocks, clocks)
def test_dominates_antisymmetric(xs, ys):
    n = min(len(xs), len(ys))
    a = VectorClock(values=xs[:n])
    b = VectorClock(values=ys[:n])
    if a.dominates(b) and b.dominates(a):
        assert a == b


@given(clocks, clocks, clocks)
def test_dominates_transitive(xs, ys, zs):
    n = min(len(xs), len(ys), len(zs))
    a = VectorClock(values=xs[:n])
    b = VectorClock(values=ys[:n])
    c = VectorClock(values=zs[:n])
    if a.dominates(b) and b.dominates(c):
        assert a.dominates(c)


@given(clocks, clocks)
def test_dominates_consistent_with_merge(xs, ys):
    # The partial order and the join agree: a >= b iff a join b == a.
    n = min(len(xs), len(ys))
    a = VectorClock(values=xs[:n])
    b = VectorClock(values=ys[:n])
    assert a.dominates(b) == (a.merged(b) == a)


# ------------------------------------------------------------ IntervalLog

def test_interval_notices():
    # An interval's write notices are its pages, read straight from the
    # clock-window walk with the writer and interval index attached.
    log = IntervalLog(2)
    log.append(Interval(node=1, index=1, pages=()))
    log.append(Interval(node=1, index=2, pages=()))
    log.append(Interval(node=1, index=3, pages=(10, 11)))
    have = VectorClock(values=[0, 2])
    want = VectorClock(values=[0, 3])
    notices = [(page, node, iv.index)
               for node, iv in log.windows(have, want) for page in iv.pages]
    assert notices == [(10, 1, 3), (11, 1, 3)]
    assert log.count_between(have, want) == 2


def test_log_appends_in_order():
    log = IntervalLog(2)
    log.append(Interval(0, 1, (1,)))
    log.append(Interval(0, 2, (2,)))
    assert log.current_index(0) == 2
    assert log.current_index(1) == 0


def test_log_rejects_out_of_order_append():
    log = IntervalLog(2)
    with pytest.raises(ValueError):
        log.append(Interval(0, 2, (1,)))


def test_intervals_between_window():
    log = IntervalLog(1)
    for i in range(1, 6):
        log.append(Interval(0, i, (i,)))
    ivs = [iv for _node, iv in log.windows(VectorClock(values=[2]),
                                           VectorClock(values=[4]))]
    assert [iv.index for iv in ivs] == [3, 4]


def test_intervals_between_unclosed_rejected():
    log = IntervalLog(1)
    log.append(Interval(0, 1, (1,)))
    with pytest.raises(ValueError):
        list(log.windows(VectorClock(1), VectorClock(values=[2])))


def _pages(log, have, want):
    return sorted(page for _node, iv in log.windows(have, want)
                  for page in iv.pages)


def test_notices_between_clocks():
    log = IntervalLog(2)
    log.append(Interval(0, 1, (10,)))
    log.append(Interval(1, 1, (20, 21)))
    log.append(Interval(0, 2, (11,)))
    have = VectorClock(values=[1, 0])
    want = VectorClock(values=[2, 1])
    assert _pages(log, have, want) == [11, 20, 21]
    assert log.count_between(have, want) == 3


def test_notices_between_empty_window():
    log = IntervalLog(2)
    log.append(Interval(0, 1, (10,)))
    have = VectorClock(values=[1, 0])
    assert _pages(log, have, have) == []
    assert log.count_between(have, have) == 0


def test_notices_between_inverted_entry_is_empty():
    # A want entry below have yields nothing for that node (slice
    # semantics), which apply paths rely on after clock merges.
    log = IntervalLog(2)
    log.append(Interval(0, 1, (10,)))
    log.append(Interval(0, 2, (11,)))
    have = VectorClock(values=[2, 0])
    want = VectorClock(values=[1, 0])
    assert _pages(log, have, want) == []
    assert log.count_between(have, want) == 0


@st.composite
def _log_and_window(draw):
    """A random closed-interval log, the intervals appended to it, and
    a (have, want) window whose entries may be inverted (want below
    have) but never unclosed."""
    nodes = draw(st.integers(1, 4))
    log = IntervalLog(nodes)
    appended = []
    lengths = draw(st.lists(st.integers(0, 4), min_size=nodes,
                            max_size=nodes))
    for node, length in enumerate(lengths):
        for index in range(1, length + 1):
            pages = draw(st.lists(st.integers(0, 30), max_size=4))
            interval = Interval(node, index, tuple(pages))
            log.append(interval)
            appended.append(interval)
    have = VectorClock(values=[draw(st.integers(0, n)) for n in lengths])
    want = VectorClock(values=[draw(st.integers(0, n)) for n in lengths])
    return log, appended, have, want


@given(_log_and_window())
def test_windows_and_count_agree_with_appended_intervals(case):
    # Oracle: the appended intervals inside (have, want], node by node,
    # each node's in index order.
    log, appended, have, want = case
    expected = [(iv.node, iv)
                for node in range(log.nodes)
                for iv in sorted(appended, key=lambda iv: iv.index)
                if iv.node == node and have[node] < iv.index <= want[node]]
    assert list(log.windows(have, want)) == expected
    assert log.count_between(have, want) == sum(len(iv.pages)
                                                for _n, iv in expected)


def test_windows_reject_unclosed_interval_like_notices_between():
    log = IntervalLog(2)
    log.append(Interval(0, 1, (1,)))
    have = VectorClock(2)
    want = VectorClock(values=[1, 1])
    for walk in (lambda: list(log.windows(have, want)),
                 lambda: log.count_between(have, want)):
        with pytest.raises(ValueError, match="not closed yet"):
            walk()
