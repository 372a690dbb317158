"""Unit tests for the datacenter workloads and arrival processes."""

import pytest

from repro.apps import (APP_REGISTRY, ArrivalProcess, OpenLoop,
                        ParameterServer, ShardedKVStore)
from repro.hw import MachineConfig
from repro.runtime import run_svm
from repro.svm import BASE, GENIMA


# ------------------------------------------------------- arrival process

def test_arrival_process_is_registered():
    for name in ("KVStore", "ParamServer", "OpenLoop"):
        assert name in APP_REGISTRY


def test_deterministic_arrivals_are_exact_periods():
    plan = ArrivalProcess("deterministic", rate_per_us=0.5, count=4)
    assert plan.times == pytest.approx([2.0, 4.0, 6.0, 8.0])


def test_poisson_arrivals_are_seed_deterministic():
    a = ArrivalProcess("poisson", rate_per_us=0.01, count=100, seed=7)
    b = ArrivalProcess("poisson", rate_per_us=0.01, count=100, seed=7)
    c = ArrivalProcess("poisson", rate_per_us=0.01, count=100, seed=8)
    assert a.times == b.times
    assert a.times != c.times
    assert all(t2 > t1 for t1, t2 in zip(a.times, a.times[1:]))
    # mean inter-arrival gap close to 1/rate over 100 draws.
    assert a.times[-1] / 100 == pytest.approx(100.0, rel=0.5)


def test_arrival_process_validates_inputs():
    with pytest.raises(ValueError, match="kind"):
        ArrivalProcess("uniform", 1.0, 1)
    with pytest.raises(ValueError, match="rate"):
        ArrivalProcess("poisson", 0.0, 1)
    with pytest.raises(ValueError, match="count"):
        ArrivalProcess("poisson", 1.0, -1)
    # NaN passes a plain ``<= 0`` test.
    for rate in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="rate_per_us"):
            ArrivalProcess("poisson", rate, 1)


# ----------------------------------------------------------- constructors

def test_kvstore_validates_fractions():
    with pytest.raises(ValueError):
        ShardedKVStore(put_fraction=1.5)
    with pytest.raises(ValueError):
        ShardedKVStore(shards=0)
    for rate in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="rate_per_us"):
            ShardedKVStore(rate_per_us=rate)
    # hot_shards is not clamped to the shard count.
    for hot in (40, -1, 2.5, True):
        with pytest.raises(ValueError, match="hot_shards"):
            ShardedKVStore(shards=16, hot_shards=hot)
    assert ShardedKVStore(shards=16, hot_shards=16).hot_shards == 16


def test_paramserver_validates_sizes():
    with pytest.raises(ValueError):
        ParameterServer(param_pages=0)
    with pytest.raises(ValueError):
        ParameterServer(steps=0)
    for field in ("param_pages", "steps", "fetch_fanout"):
        for bad in (0, -1, 2.0, True, "8", None):
            with pytest.raises(ValueError, match=field):
                ParameterServer(**{field: bad})
    # A fan-out beyond the parameter pages used to be cut down silently.
    with pytest.raises(ValueError, match="fetch_fanout"):
        ParameterServer(param_pages=4, fetch_fanout=5)
    ParameterServer(param_pages=4, fetch_fanout=4)
    for bad in (-1.0, float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="compute_us"):
            ParameterServer(compute_us=bad)
    ParameterServer(compute_us=0)
    # The scale sweep's recipe stays valid at every size it runs.
    from repro.experiments.scale import scale_params
    for nprocs in (1, 64, 256, 1024):
        ParameterServer(**scale_params("ParamServer", nprocs))


def test_openloop_validates_pages():
    with pytest.raises(ValueError):
        OpenLoop(pages=0)
    # Checked at construction: a NaN rate used to simulate to a time.
    for rate in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="rate_per_us"):
            OpenLoop(rate_per_us=rate)


# ------------------------------------------------------------------ runs

def _small_kv(**kw):
    kw.setdefault("shards", 8)
    kw.setdefault("requests_per_rank", 8)
    return ShardedKVStore(**kw)


def test_kvstore_runs_on_both_rungs():
    base = run_svm(_small_kv(), BASE)
    genima = run_svm(_small_kv(), GENIMA)
    assert base.time_us > 0 and genima.time_us > 0
    assert base.stats["page_fetches"] > 0


def test_kvstore_is_seed_deterministic():
    r1 = run_svm(_small_kv(seed=3), GENIMA)
    r2 = run_svm(_small_kv(seed=3), GENIMA)
    r3 = run_svm(_small_kv(seed=4), GENIMA)
    assert r1.time_us == r2.time_us
    assert r1.time_us != r3.time_us


def test_kvstore_puts_take_locks_and_push_diffs():
    result = run_svm(_small_kv(put_fraction=1.0), GENIMA)
    none = run_svm(_small_kv(put_fraction=0.0), GENIMA)
    assert result.stats["lock_acquires"] > 0
    # GeNIMA scatters diffs as runs; a put-free run writes nothing.
    assert result.stats["diff_runs_sent"] > 0
    assert none.stats["diff_runs_sent"] == 0
    assert none.stats["lock_acquires"] == 0


def test_paramserver_runs_and_genima_helps():
    app = ParameterServer(param_pages=32, steps=4, compute_us=200.0)
    base = run_svm(ParameterServer(param_pages=32, steps=4,
                                   compute_us=200.0), BASE)
    genima = run_svm(app, GENIMA)
    # fetch + diff heavy: the NI-supported rung must not be slower.
    assert genima.time_us <= base.time_us
    assert genima.stats["page_fetches"] > 0


def test_openloop_records_sojourn_times():
    app = OpenLoop(pages=16, requests_per_rank=8, rate_per_us=0.01)
    result = run_svm(app, GENIMA)
    assert result.time_us > 0
    assert set(app.sojourn_us) == set(range(16))
    for done, sojourn in app.sojourn_us.values():
        assert done == 8
        assert sojourn >= 0.0


def test_openloop_arrival_schedule_bounds_completion():
    # At a very slow rate the run is arrival-bound: completion is at
    # least the last arrival of the busiest rank's schedule.
    app = OpenLoop(pages=16, requests_per_rank=4, rate_per_us=0.0005,
                   arrivals="deterministic")
    result = run_svm(app, GENIMA)
    assert result.time_us >= 4 / 0.0005


def test_datacenter_apps_scale_past_the_paper_testbed():
    cfg = MachineConfig(nodes=32, procs_per_node=1, topology="fat-tree")
    result = run_svm(ShardedKVStore(shards=32, requests_per_rank=4),
                     GENIMA, config=cfg)
    assert result.nprocs == 32
    assert result.time_us > 0
