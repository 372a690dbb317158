"""Tests for the runtime layer: contexts, backends, runner, results."""

import gc
import weakref

import pytest

from repro.apps import Application
from repro.hw import MachineConfig
from repro.runtime import (LocalBackend, ParallelContext, RunResult,
                           SVMBackend, run_on_backend, run_sequential,
                           run_svm, speedup)
from repro.sim import SimulationError, TimeBuckets
from repro.svm import BASE, GENIMA


class TinyApp(Application):
    """Minimal app: compute, one shared write, one barrier."""

    name = "tiny"
    bus_intensity = 0.1

    def __init__(self, work_us: float = 100.0):
        self.work_us = work_us

    def setup(self, backend):
        return {"r": backend.allocate("tiny.r", 16)}

    def process(self, ctx, regions):
        # fixed total work, divided among the processes
        yield from ctx.compute(self.work_us / ctx.nprocs)
        yield from ctx.write(regions["r"], [ctx.rank % 16])
        yield from ctx.barrier()


# ------------------------------------------------------------------ context

def test_my_slice_partitions_exactly():
    backend = LocalBackend()
    for n in (16, 17, 100, 5):
        covered = []
        for rank in range(16):
            ctx = ParallelContext(backend, rank, 16)
            start, stop = ctx.my_slice(n)
            covered.extend(range(start, stop))
        assert covered == list(range(n)), n


def test_my_items_matches_my_slice():
    ctx = ParallelContext(LocalBackend(), 3, 16)
    assert list(ctx.my_items(100)) == list(range(*ctx.my_slice(100)))


def test_context_uses_app_bus_intensity_by_default():
    calls = []

    class Spy(LocalBackend):
        def op_compute(self, rank, us, bus_intensity):
            calls.append(bus_intensity)
            return super().op_compute(rank, us, bus_intensity)

    ctx = ParallelContext(Spy(), 0, 1, bus_intensity=0.7)
    gen = ctx.compute(10.0)
    assert calls == [0.7]
    gen2 = ctx.compute(10.0, bus_intensity=0.1)
    assert calls == [0.7, 0.1]


# ----------------------------------------------------------------- backends

def test_local_backend_ops_are_free():
    backend = LocalBackend()
    region = backend.allocate("x", 4)
    sim = backend.sim
    done = []

    def proc():
        yield from backend.op_compute(0, 50.0, 0.9)
        yield from backend.op_read(0, region, [0, 1])
        yield from backend.op_write(0, region, [2], 1, None)
        yield from backend.op_lock(0, 5)
        yield from backend.op_unlock(0, 5)
        yield from backend.op_barrier(0)
        done.append(sim.now)

    sim.process(proc())
    sim.run()
    assert done[0] == pytest.approx(50.0)  # only compute advanced time


def test_local_backend_bounds_checks_regions():
    backend = LocalBackend()
    region = backend.allocate("x", 4)
    with pytest.raises(IndexError):
        backend.op_read(0, region, [4])


def test_svm_backend_wires_monitor_and_protocol():
    backend = SVMBackend(MachineConfig(), GENIMA)
    assert backend.monitor is not None
    assert backend.protocol.features.ni_locks
    assert backend.nprocs == 16


# ------------------------------------------------------------------- runner

def test_run_on_backend_produces_complete_result():
    result = run_svm(TinyApp(), BASE)
    assert isinstance(result, RunResult)
    assert result.system == "Base"
    assert result.nprocs == 16
    assert result.time_us > 0
    assert len(result.buckets) == 16
    assert result.monitor_small is not None
    assert "interrupts" in result.stats


@pytest.mark.parametrize("nprocs", [0, -2, True, 1.0])
def test_run_on_backend_rejects_bad_nprocs(nprocs):
    # None means the backend's count; 0 used to mean it too.
    with pytest.raises(ValueError, match="nprocs"):
        run_on_backend(TinyApp(), LocalBackend(), system="seq",
                       nprocs=nprocs)


def test_time_buckets_from_dict_requires_every_bucket():
    data = TimeBuckets().as_dict()
    assert TimeBuckets.from_dict(data).as_dict() == data
    del data["lock"]
    with pytest.raises(KeyError):
        TimeBuckets.from_dict(data)


def test_runner_resets_accounting_after_init():
    """Init-phase work (cold faults) must not appear in breakdowns."""

    class ColdApp(TinyApp):
        name = "cold"

        def init_process(self, ctx, regions):
            yield from ctx.read(regions["r"], range(16))  # cold faults

        def process(self, ctx, regions):
            yield from ctx.compute(10.0, bus_intensity=0.0)

    result = run_svm(ColdApp(), BASE)
    mean = result.mean_breakdown
    # only the timed compute (plus negligible sync skew) remains
    assert mean.data < 1.0
    assert mean.compute == pytest.approx(10.0, rel=0.2)


def test_sequential_baseline_is_full_work():
    seq100 = run_sequential(TinyApp(work_us=100.0))
    seq200 = run_sequential(TinyApp(work_us=200.0))
    assert seq200.time_us == pytest.approx(2 * seq100.time_us, rel=0.01)


def test_speedup_definition():
    seq = run_sequential(TinyApp(work_us=1000.0))
    par = run_svm(TinyApp(work_us=1000.0), GENIMA)
    s = speedup(seq, par)
    assert 0 < s <= 16.5
    with pytest.raises(SimulationError, match="x/y"):
        speedup(seq, RunResult(app="x", system="y", nprocs=1, time_us=0.0))


def _machines_built(monkeypatch):
    """Weak references to every Machine built from here on."""
    from repro.hw import Machine
    built = []
    init = Machine.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(weakref.ref(self))

    monkeypatch.setattr(Machine, "__init__", recording_init)
    return built


def _instrumented_run():
    """Barnes-spatial/GeNIMA under a tracer, spans, the invariant
    checker and a telemetry sampler; the caller's instruments are
    dropped on return, the result is kept."""
    from repro.apps import APP_REGISTRY
    from repro.obs import TimeSeriesSampler
    from repro.sim import Tracer
    tracer = Tracer()
    sampler = TimeSeriesSampler()
    result = run_svm(APP_REGISTRY["Barnes-spatial"](), GENIMA,
                     tracer=tracer, spans=True, check=True,
                     telemetry=sampler)
    assert tracer.counts() and sampler.times
    return result


def test_finished_runs_free_themselves(monkeypatch):
    """With the cyclic collector off throughout, each finished run is
    freed by reference counting alone: it leaves no cyclic garbage and
    its Machine is gone once the backend is dropped.  Covered: every
    ladder rung and the sequential cell of one SPLASH-2 app, a lossy
    KVStore cell, one fully instrumented run, a profiled run (the
    phase set) and a sampled lossy KVStore cell."""
    from repro.apps import APP_REGISTRY
    from repro.experiments.profile import collect_profile
    from repro.hw import FaultConfig
    from repro.obs import TimeSeriesSampler
    from repro.svm import PROTOCOL_LADDER
    app = APP_REGISTRY["Barnes-spatial"]
    lossy = MachineConfig(nodes=8, topology="fat-tree",
                          faults=FaultConfig(loss=0.02, dup=0.02,
                                             reorder=0.02, seed=3))
    runs = [(f"Barnes-spatial/{features.name}",
             lambda features=features: run_svm(app(), features))
            for features in PROTOCOL_LADDER]
    runs += [
        ("Barnes-spatial/seq", lambda: run_sequential(app())),
        ("KVStore/GeNIMA/lossy",
         lambda: run_svm(APP_REGISTRY["KVStore"](), GENIMA, config=lossy)),
        ("Barnes-spatial/GeNIMA/instrumented", _instrumented_run),
        ("Barnes-spatial/GeNIMA/profiled",
         lambda: collect_profile(app(), GENIMA)),
        ("KVStore/GeNIMA/lossy/sampled",
         lambda: run_svm(APP_REGISTRY["KVStore"](), GENIMA, config=lossy,
                         telemetry=TimeSeriesSampler())),
    ]
    built = _machines_built(monkeypatch)
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        results = []
        for name, run in runs:
            del built[:]
            results.append(run())
            assert gc.collect() == 0, name
            assert built and all(ref() is None for ref in built), name
        # A backend the caller built and ran is freed when dropped.
        backend = SVMBackend(lossy, GENIMA)
        machine = weakref.ref(backend.machine)
        run_on_backend(APP_REGISTRY["KVStore"](), backend, system="GeNIMA")
        del backend
        assert gc.collect() == 0
        assert machine() is None
    finally:
        if was_enabled:
            gc.enable()
    assert all(r.time_us > 0 for r in results)


# ------------------------------------------------------------------- results

def test_result_summary_fields():
    result = run_svm(TinyApp(), GENIMA)
    summary = result.summary()
    for key in ("app", "system", "nprocs", "time_us", "compute",
                "barrier", "interrupts", "messages"):
        assert key in summary


def test_table2_metrics_bounded():
    result = run_svm(TinyApp(), GENIMA)
    assert 0.0 <= result.barrier_fraction <= 1.0
    assert 0.0 <= result.barrier_protocol_fraction <= 1.0
    assert 0.0 <= result.mprotect_fraction <= 1.0


def test_mean_breakdown_averages_ranks():
    buckets = []
    for v in (10.0, 20.0, 30.0):
        b = TimeBuckets()
        b.charge("compute", v)
        buckets.append(b)
    result = RunResult(app="x", system="y", nprocs=3, time_us=1.0,
                       buckets=buckets)
    assert result.mean_breakdown.compute == pytest.approx(20.0)
