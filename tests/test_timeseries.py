"""Tests for the sim-time telemetry pipeline.

Covers the LogHistogram bucket algebra, the sampler's counter/gauge
semantics and decimation bound, the scale-aware reductions (top-k,
skew), hot-node detection on the sharded KV workload, the OpenMetrics
exposition format, and the determinism contract (summaries identical
across runs and across ``--jobs`` fan-out; the schedule untouched —
the byte-identity pin itself lives in ``test_golden.py``).
"""

import json
import math

import pytest

from repro.experiments import compute_scale, scale_params
from repro.experiments.cache import ExperimentCache
from repro.hw import MachineConfig
from repro.obs import (LogHistogram, TimeSeriesSampler, render_dash,
                       render_dash_html, render_openmetrics, sparkline,
                       telemetry_brief)
from repro.runtime import run_svm
from repro.runtime.parallel import decode_result, encode_result, evaluate_cell
from repro.svm import GENIMA
from repro.apps import ShardedKVStore, WaterSpatial


# ------------------------------------------------------------ LogHistogram

def test_log_histogram_bucket_edges():
    h = LogHistogram()
    # frexp puts v in [2**(e-1), 2**e): 1.0 and 1.99 share a bucket,
    # 2.0 starts the next one.
    h.add(1.0)
    h.add(1.99)
    h.add(2.0)
    assert h.buckets() == [(2.0, 2), (4.0, 1)]
    assert h.count == 3


def test_log_histogram_zero_and_negative_bucket():
    h = LogHistogram()
    h.add(0.0)
    h.add(-5.0)
    h.add(3.0)
    assert h.zeros == 2
    assert h.buckets()[0] == (0.0, 2)
    assert h.count == 3


def test_log_histogram_quantile():
    h = LogHistogram()
    for v in (1.0, 1.0, 1.0, 8.0):
        h.add(v)
    assert h.quantile(0.5) == 2.0    # bucket upper bound
    assert h.quantile(1.0) == 16.0
    assert LogHistogram().quantile(0.5) == 0.0
    with pytest.raises(ValueError):
        h.quantile(1.5)


def test_log_histogram_merge():
    a, b = LogHistogram(), LogHistogram()
    a.add(1.0)
    a.add(0.0)
    b.add(1.5)
    b.add(100.0)
    a.merge(b)
    assert a.count == 4
    assert a.zeros == 1
    assert dict(a.buckets())[2.0] == 2


def test_log_histogram_round_trips_through_json():
    h = LogHistogram()
    for v in (0.0, 0.5, 3.0, 1e9):
        h.add(v)
    d = json.loads(json.dumps(h.to_dict()))
    assert d["count"] == 4
    assert sum(n for _, n in d["buckets"]) == 4


# ----------------------------------------------------------- sampler units

def test_sampler_counter_probes_record_deltas():
    box = {"v": 0}
    s = TimeSeriesSampler(cadence_us=1.0)
    s.probe("m.count", "counter", lambda: [box["v"]])
    for v in (3, 10, 10):
        box["v"] = v
        s._sample(float(v))
    _, sums, _, _ = s.series("m.count")
    assert sums == [3.0, 7.0, 0.0]
    track = s._series["m.count"].tracks[0]
    assert track.stat.total == 10.0


def test_sampler_gauge_probes_record_levels():
    box = {"v": 0}
    s = TimeSeriesSampler(cadence_us=1.0)
    s.probe("m.depth", "gauge", lambda: [box["v"]])
    for v in (3, 10, 2):
        box["v"] = v
        s._sample(float(v))
    _, sums, maxima, _ = s.series("m.depth")
    assert sums == [3.0, 10.0, 2.0]
    assert maxima == [3.0, 10.0, 2.0]


def test_sampler_vector_probe_tracks_every_node():
    s = TimeSeriesSampler(cadence_us=1.0)
    s.probe("m.vec", "gauge", lambda: [1.0, 5.0, 2.0])
    s._sample(0.0)
    _, sums, maxima, argmax = s.series("m.vec")
    assert sums == [8.0]
    assert maxima == [5.0]
    assert argmax == [1]
    assert s.top_nodes("m.vec", 2) == [(1, 5.0), (2, 2.0)]


def test_sampler_rejects_kind_conflicts_and_double_vectors():
    s = TimeSeriesSampler(cadence_us=1.0)
    s.probe("m", "gauge", lambda: [0.0])
    with pytest.raises(ValueError):
        s.probe("m", "counter", lambda: [0.0])
    s.probe("v", "gauge", lambda: [])
    with pytest.raises(ValueError):
        s.probe("v", "gauge", lambda: [])
    with pytest.raises(ValueError):
        s.probe("w", "histogram", lambda: [])
    for width in (0.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            TimeSeriesSampler(cadence_us=width)
    for samples in (1, math.nan, 2.5):
        with pytest.raises(ValueError, match="max_samples"):
            TimeSeriesSampler(max_samples=samples)
    s.probe("t", "timeline", lambda: [])
    with pytest.raises(ValueError):
        s.probe("t", "timeline", lambda: [])
    with pytest.raises(ValueError):
        s.probe("t", "gauge", lambda: [])
    with pytest.raises(ValueError):
        s.probe("m", "timeline", lambda: [])


def test_sampler_rejects_negative_top_k():
    # A negative k would slice [:-1]: every node but the coldest.
    for k in (-1, 2.5, math.nan, True):
        with pytest.raises(ValueError, match="top_k"):
            TimeSeriesSampler(top_k=k)
    s = TimeSeriesSampler(top_k=0)
    s.probe("m", "gauge", lambda: [1.0, 2.0, 3.0])
    s._sample(1.0)
    assert s.top_nodes("m") == []
    assert s.top_nodes("m", 2) == [(2, 3.0), (1, 2.0)]


def test_counter_vector_probes_keep_timeline_rows():
    box = {"v": [0.0, 0.0]}
    s = TimeSeriesSampler(cadence_us=1.0)
    s.probe("t", "timeline", lambda: box["v"])
    for t, v in ((1.0, [2.0, 1.0]), (2.0, [5.0, 1.0]), (3.0, [1.0, 4.0])):
        box["v"] = v
        s._sample(t)
    # The third reading of index 0 fell: a reset, so the delta is 1.0.
    assert s.timeline("t") == [(0.0, 1.0, [2.0, 1.0]),
                               (1.0, 2.0, [3.0, 0.0]),
                               (2.0, 3.0, [1.0, 3.0])]
    # Timelines are rows, not metrics: no rollup, no summary entry.
    assert s.metrics() == ()
    assert s.summary()["metrics"] == {}


def test_sampler_decimation_bounds_memory_and_doubles_stride():
    s = TimeSeriesSampler(cadence_us=1.0, max_samples=4)
    s.probe("m", "gauge", lambda: [1.0])
    for t in range(32):
        s._sample(float(t))
    assert len(s.times) < 4
    assert s._stride == 16
    # Histograms still saw every sample: bounded series, full stats.
    assert s._series["m"].tracks[0].stat.count == 32


def test_sampler_skew_ratio_none_when_median_idle():
    s = TimeSeriesSampler(cadence_us=1.0)
    s.probe("m", "gauge", lambda: [9.0, 0.0, 0.0])
    s._sample(0.0)
    skew = s.skew("m")
    assert skew["max"] == 9.0
    assert skew["ratio"] is None


def test_summary_round_trips_and_reports_rollups():
    s = TimeSeriesSampler(cadence_us=1.0)
    s.probe("m", "gauge", lambda: [1.0, 3.0])
    s.probe("g", "gauge", lambda: 7.0)      # machine-wide probe
    s._sample(0.0)
    s._sample(1.0)
    summary = json.loads(json.dumps(s.summary()))
    m = summary["metrics"]["m"]
    assert m["agg"]["nodes"] == 2
    assert m["agg"]["count"] == 4
    assert m["agg"]["peak"] == 3.0
    assert m["agg"]["peak_node"] == 1
    assert m["top"][0] == [1, 3.0]
    g = summary["metrics"]["g"]
    assert "top" not in g            # no per-node tracks
    assert g["agg"]["nodes"] == 0


# ------------------------------------------------------------ sampled runs

@pytest.fixture(scope="module")
def sampled_water():
    sampler = TimeSeriesSampler(cadence_us=500.0)
    result = run_svm(WaterSpatial(molecules=256, steps=1), GENIMA,
                     telemetry=sampler)
    return sampler, result


def test_run_registers_the_probe_catalog(sampled_water):
    sampler, _ = sampled_water
    metrics = set(sampler.metrics())
    assert {"ni.queue_depth", "net.in_flight", "svm.page_faults",
            "svm.invalidations", "lock.wait_depth",
            "node.interrupts"} <= metrics


def test_probes_are_declared_in_the_registry_only_when_read(monkeypatch):
    """The layers declare their probes in the machine's registry, in
    the order machine, then protocol; an unsampled run whose registry
    is never read declares none."""
    from repro.hw import FaultConfig
    from repro.obs import MetricsRegistry
    declared = []
    register = MetricsRegistry.register_probe

    def recording(self, name, *args):
        declared.append(name)
        return register(self, name, *args)

    monkeypatch.setattr(MetricsRegistry, "register_probe", recording)
    config = MachineConfig(nodes=8, topology="fat-tree",
                           faults=FaultConfig(loss=0.02, seed=3))
    params = scale_params("KVStore", config.total_procs)
    run_svm(ShardedKVStore(**params), GENIMA, config=config)
    assert declared == []
    sampler = TimeSeriesSampler()
    run_svm(ShardedKVStore(**params), GENIMA, config=config,
            telemetry=sampler)
    order = ["ni.queue_depth", "node.interrupts", "net.in_flight",
             "retx.outstanding", "svm.page_faults", "svm.invalidations",
             "lock.wait_depth"]
    assert declared == order
    assert list(sampler.metrics()) == order


def test_run_result_carries_the_summary(sampled_water):
    sampler, result = sampled_water
    assert result.telemetry["samples"] == len(sampler.times)
    assert result.telemetry["metrics"]["svm.page_faults"]["agg"][
        "count"] > 0
    brief = telemetry_brief(result.telemetry)
    assert brief["peak_queue_depth"] > 0
    assert telemetry_brief(None) is None


def test_sampled_summaries_are_run_deterministic(sampled_water):
    sampler, result = sampled_water
    again = TimeSeriesSampler(cadence_us=500.0)
    r2 = run_svm(WaterSpatial(molecules=256, steps=1), GENIMA,
                 telemetry=again)
    assert r2.time_us == result.time_us
    assert json.dumps(again.summary(), sort_keys=True) == \
        json.dumps(sampler.summary(), sort_keys=True)


def test_sampler_cannot_attach_twice(sampled_water):
    sampler, _ = sampled_water
    with pytest.raises(RuntimeError):
        run_svm(WaterSpatial(molecules=64, steps=1), GENIMA,
                telemetry=sampler)


def test_hot_shard_node_tops_the_queue_table():
    """The acceptance scenario: skewed KVStore on a fat-tree — the
    hot shards' home nodes must surface in the top-k queue table."""
    nodes = 16
    config = MachineConfig().scaled(nodes=nodes, procs_per_node=1,
                                    topology="fat-tree")
    params = scale_params("KVStore", nodes)
    sampler = TimeSeriesSampler(cadence_us=500.0)
    run_svm(ShardedKVStore(**params), GENIMA, config=config,
            telemetry=sampler)
    top = sampler.top_nodes("ni.queue_depth", 4)
    # Blocked home mapping: hot shards 0..3 -> pages 0..15 -> the
    # low-numbered nodes (4 pages homed per node at this size).
    hot_homes = set(range(4))
    assert top[0][0] in hot_homes, top
    skew = sampler.skew("ni.queue_depth")
    assert skew["ratio"] is None or skew["ratio"] > 1.5


# ------------------------------------------------------------- OpenMetrics

def test_openmetrics_golden_format():
    snapshot = {
        "svm.page_fetches": 12,
        "nic.0.delivery_latency_us": {
            "count": 2, "total": 30.0, "mean": 15.0,
            "min": 10.0, "max": 20.0, "variance": 50.0,
            "stdev": 7.0710678118654755,
        },
    }
    telemetry = {
        "schema": 1, "samples": 2,
        "metrics": {
            "ni.queue_depth": {
                "kind": "gauge",
                "agg": {"nodes": 2, "count": 4, "mean": 2.0,
                        "stdev": 1.0, "peak": 4.0, "peak_node": 1},
                "hist": {"count": 4, "buckets": [[0.0, 1], [2.0, 2],
                                                 [4.0, 1]]},
                "skew": {"max": 3.0, "median": 1.0, "ratio": 3.0},
            },
        },
    }
    text = render_openmetrics(snapshot=snapshot, telemetry=telemetry)
    assert text == """\
# HELP repro_nic_delivery_latency_us registry stat nic_delivery_latency_us
# TYPE repro_nic_delivery_latency_us summary
repro_nic_delivery_latency_us_count{node="0"} 2
repro_nic_delivery_latency_us_sum{node="0"} 30
# HELP repro_nic_delivery_latency_us_max registry stat nic_delivery_latency_us max
# TYPE repro_nic_delivery_latency_us_max gauge
repro_nic_delivery_latency_us_max{node="0"} 20
# HELP repro_nic_delivery_latency_us_min registry stat nic_delivery_latency_us min
# TYPE repro_nic_delivery_latency_us_min gauge
repro_nic_delivery_latency_us_min{node="0"} 10
# HELP repro_nic_delivery_latency_us_stdev registry stat nic_delivery_latency_us stdev
# TYPE repro_nic_delivery_latency_us_stdev gauge
repro_nic_delivery_latency_us_stdev{node="0"} 7.0710678118654755
# HELP repro_svm_page_fetches registry metric svm_page_fetches
# TYPE repro_svm_page_fetches gauge
repro_svm_page_fetches 12
# HELP repro_ts_ni_queue_depth sampled telemetry ni.queue_depth (gauge, log2 buckets)
# TYPE repro_ts_ni_queue_depth histogram
repro_ts_ni_queue_depth_bucket{le="0"} 1
repro_ts_ni_queue_depth_bucket{le="2"} 3
repro_ts_ni_queue_depth_bucket{le="4"} 4
repro_ts_ni_queue_depth_bucket{le="+Inf"} 4
repro_ts_ni_queue_depth_count 4
repro_ts_ni_queue_depth_sum 8
# HELP repro_ts_ni_queue_depth_peak peak sampled ni.queue_depth (node label = argmax)
# TYPE repro_ts_ni_queue_depth_peak gauge
repro_ts_ni_queue_depth_peak{node="1"} 4
# HELP repro_ts_ni_queue_depth_skew max/median per-node skew of ni.queue_depth
# TYPE repro_ts_ni_queue_depth_skew gauge
repro_ts_ni_queue_depth_skew 3
# EOF
"""


def test_openmetrics_escapes_and_sanitizes():
    text = render_openmetrics(snapshot={'we"ird\\name\n.x': 1})
    assert 'we_ird_name' in text
    assert text.endswith("# EOF\n")
    # NaN for a None skew ratio (maximal skew) stays parseable.
    t = {"metrics": {"m": {"kind": "gauge",
                           "agg": {"nodes": 1, "count": 1, "mean": 0.0,
                                   "stdev": 0.0, "peak": 1.0,
                                   "peak_node": 0},
                           "hist": {"count": 1, "buckets": [[2.0, 1]]},
                           "skew": {"max": 1.0, "median": 0.0,
                                    "ratio": None}}}}
    assert "repro_ts_m_skew NaN" in render_openmetrics(telemetry=t)


def test_openmetrics_is_deterministic(sampled_water):
    sampler, _ = sampled_water
    snap = sampler.machine.metrics.snapshot()
    a = render_openmetrics(snapshot=snap, telemetry=sampler.summary())
    b = render_openmetrics(snapshot=snap, telemetry=sampler.summary())
    assert a == b


# -------------------------------------------------------------- dashboards

def test_sparkline_downsamples_by_max():
    line = sparkline([0.0, 1.0, 0.0, 8.0], width=2)
    assert len(line) == 2
    assert line[1] == "█"
    assert sparkline([], width=8) == ""
    assert sparkline([0.0, 0.0], width=8) == "  "


def test_render_dash_names_hot_nodes(sampled_water):
    sampler, _ = sampled_water
    text = render_dash(sampler, title="t")
    assert "ni.queue_depth" in text
    assert "hot nodes" in text
    assert "skew max/median" in text
    html = render_dash_html(sampler, title="t")
    assert html.startswith("<!doctype html>")
    assert "ni.queue_depth" in html


def test_counter_events_merge_into_chrome_trace(sampled_water):
    sampler, _ = sampled_water
    merged = sampler.merge_chrome_trace([{"ph": "X", "pid": 1}])
    counters = [e for e in merged if e.get("ph") == "C"]
    assert counters and all(e["pid"] == 99 for e in counters)
    assert merged[0] == {"ph": "X", "pid": 1}
    names = {e["name"] for e in counters}
    assert "ni.queue_depth" in names
    json.dumps(merged)


# ----------------------------------------------- cache / parallel plumbing

def test_cell_spec_telemetry_round_trips_through_json():
    cache = ExperimentCache(config=MachineConfig())
    spec = cache.spec_svm("Water-spatial", GENIMA, telemetry_us=500.0,
                          molecules=256, steps=1)
    payload = json.loads(json.dumps(evaluate_cell(spec)))
    result = decode_result(payload["result"])
    assert result.telemetry["samples"] > 0
    assert encode_result(result) == payload["result"]
    # An unsampled spec stays telemetry-free (and keys differently).
    plain = cache.spec_svm("Water-spatial", GENIMA,
                           molecules=256, steps=1)
    assert plain.digest("f" * 16) != spec.digest("f" * 16)
    bare = decode_result(json.loads(json.dumps(
        evaluate_cell(plain)))["result"])
    assert bare.telemetry is None
    assert bare.time_us == result.time_us  # sampling is schedule-free


def test_compute_scale_rows_identical_across_jobs():
    kwargs = dict(app_name="KVStore", node_counts=(4,),
                  topologies=("crossbar",), feature_sets=(GENIMA,),
                  telemetry_us=500.0)
    serial = compute_scale(cache=ExperimentCache(jobs=1), **kwargs)
    pooled = compute_scale(cache=ExperimentCache(jobs=2), **kwargs)
    assert json.dumps(serial, sort_keys=True) == \
        json.dumps(pooled, sort_keys=True)
    assert serial[0]["telemetry"]["samples"] > 0


def test_compute_scale_without_telemetry_has_no_digest():
    rows = compute_scale(app_name="KVStore", node_counts=(4,),
                         topologies=("crossbar",),
                         feature_sets=(GENIMA,),
                         cache=ExperimentCache(jobs=1),
                         telemetry_us=None)
    assert rows[0]["telemetry"] is None
