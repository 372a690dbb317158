"""Unit tests for small shared utilities: stats, monitor internals,
trace export, reporting edge cases."""

import json
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from repro.experiments.reporting import format_float, format_table
from repro.hw import MachineConfig, Message
from repro.hw.packet import Packet
from repro.sim import (RunningStat, SeededStream, TimeBuckets, Tracer,
                       weighted_mean)
from repro.sim import stats


# -------------------------------------------------------------- RunningStat

def test_running_stat_basics():
    rs = RunningStat()
    rs.extend([1.0, 2.0, 3.0, 4.0])
    assert rs.count == 4
    assert rs.mean == pytest.approx(2.5)
    assert rs.min == 1.0 and rs.max == 4.0
    assert rs.total == pytest.approx(10.0)
    assert rs.variance == pytest.approx(5.0 / 3.0)


def test_running_stat_empty():
    rs = RunningStat()
    assert rs.mean == 0.0
    assert rs.variance == 0.0


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=100))
def test_running_stat_matches_naive(xs):
    rs = RunningStat()
    rs.extend(xs)
    assert rs.mean == pytest.approx(sum(xs) / len(xs), rel=1e-6, abs=1e-6)
    assert rs.min == min(xs) and rs.max == max(xs)


@given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=50),
       st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=50))
def test_running_stat_merge_equals_concat(xs, ys):
    a = RunningStat()
    a.extend(xs)
    b = RunningStat()
    b.extend(ys)
    merged = a.merge(b)
    naive = RunningStat()
    naive.extend(xs + ys)
    assert merged.count == naive.count
    assert merged.mean == pytest.approx(naive.mean, rel=1e-6, abs=1e-6)
    assert merged.variance == pytest.approx(naive.variance,
                                            rel=1e-4, abs=1e-4)


def test_weighted_mean():
    assert weighted_mean([(10.0, 1.0), (20.0, 3.0)]) == pytest.approx(17.5)
    assert weighted_mean([]) == 0.0


# ------------------------------------------------------------- SeededStream

@pytest.mark.parametrize("key", [7, 12345 * 1000003 + 3, "0:3->17"],
                         ids=["int", "node-key", "link-key"])
def test_seeded_stream_matches_random(key):
    """Draw for draw, through every refill and past the point where the
    stream keeps its generator, mixing the three draw kinds."""
    stream, rng = SeededStream(key), random.Random(key)
    for i in range(2 * SeededStream.KEEP_AFTER + 7):
        kind = i % 3
        if kind == 0:
            assert stream.random() == rng.random(), i
        elif kind == 1:
            assert stream.uniform(0.0, 3.5) == rng.uniform(0.0, 3.5), i
        else:
            assert stream.expovariate(0.25) == rng.expovariate(0.25), i


def test_seeded_stream_seeds_lazily_and_rarely(monkeypatch):
    """No seeding before the first draw, one for the first window, one
    per doubling after it, and none once the generator is kept."""
    seeded = []

    def counting(key):
        seeded.append(key)
        return random.Random(key)

    monkeypatch.setattr(stats, "random", SimpleNamespace(Random=counting))
    stream = SeededStream("k")
    assert seeded == []
    first = SeededStream.FIRST_WINDOW
    for _ in range(first):
        stream.random()
    assert len(seeded) == 1
    stream.random()
    assert len(seeded) == 2
    keep = SeededStream.KEEP_AFTER
    for _ in range(4 * keep):
        stream.random()
    doublings = (keep // first).bit_length() - 1
    assert len(seeded) == 2 + doublings


# -------------------------------------------------------------- TimeBuckets

def test_buckets_reject_negative_charge():
    b = TimeBuckets()
    with pytest.raises(ValueError):
        b.charge("compute", -1.0)


def test_buckets_average_empty_list():
    avg = TimeBuckets.average([])
    assert avg.total == 0.0


# -------------------------------------------------------- monitor internals

def test_monitor_skips_source_for_fw_origin_control():
    from repro.hw import Machine
    from repro.vmmc import PerfMonitor

    machine = Machine(MachineConfig())
    monitor = PerfMonitor(machine)
    msg = Message(src=0, dst=1, size=16, kind="lock_op",
                  deliver_to_host=False)
    pkt = Packet(message=msg, size=16, index=0, is_last=True,
                 fw_origin=True)
    pkt.t_enqueue = 0.0
    pkt.t_src_done = 0.0
    pkt.t_injected = 5.0
    pkt.t_net_arrival = 6.0
    pkt.t_delivered = 14.0
    monitor.record(pkt)
    small = monitor._ratios["small"]
    assert small["source"].count == 0   # not comparable, skipped
    assert small["dest"].count == 1


# ----------------------------------------------------------------- tracing

def test_chrome_trace_export():
    tr = Tracer()
    tr.record(1.5, "lock.acquire", rank=3, lock=7)
    tr.record(2.5, "barrier.enter", rank=0)
    events = tr.to_chrome_trace()
    meta = [e for e in events if e["ph"] == "M"]
    # process label + one thread label per rank row
    assert [m["args"]["name"] for m in meta] == \
        ["repro", "rank 0", "rank 3"]
    instants = [e for e in events if e["ph"] == "i"]
    assert instants[0]["name"] == "lock.acquire"
    assert instants[0]["tid"] == 3
    assert instants[0]["ts"] == 1.5
    loaded = json.loads(json.dumps(events))
    assert loaded == events
    assert loaded[-1]["name"] == "barrier.enter"


# --------------------------------------------------------------- reporting

def test_format_float_variants():
    assert format_float(None) == "-"
    assert format_float("txt") == "txt"
    assert format_float(1.2345, digits=1) == "1.2"


def test_format_table_empty_rows():
    text = format_table(["a", "b"], [])
    assert "a" in text and "b" in text
