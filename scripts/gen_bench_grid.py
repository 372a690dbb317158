"""Regenerate BENCH_grid.json: grid-executor and run-cache timings.

Usage: python scripts/gen_bench_grid.py [out.json]

Times one fixed experiment grid — two representative apps across the
full protocol ladder (10 SVM cells) — four ways:

* ``cold_jobs1``  — fresh store, everything evaluated in-process;
* ``cold_jobs4``  — fresh store, evaluated on a 4-worker spawn pool;
* ``warm_jobs1``  — rerun against the jobs=1 store (pure cache hits);
* ``warm_jobs4``  — rerun against the jobs=4 store (pure cache hits).

Every mode must produce byte-identical results per digest (the
executor's determinism contract); the script asserts that and records
it.  Pool speedup is bounded by ``cpu_count`` — the recorded value
makes a 1-core CI box's ~1x cold ratio interpretable.

Also includes two engine-core micro-benchmarks:

* ``tracer_record`` — per-call cost of the ``Tracer.record`` fast
  path: a rejected record on a no-sink tracer (``categories=()``) vs.
  an admitted record on an unfiltered columnar tracer;
* ``telemetry`` — sampler overhead: ns per dispatched event on one
  representative cell (FFT/Base) with a ``TimeSeriesSampler`` attached
  at the default cadence vs. the same cell unsampled (the event counts
  must match — sampling rides slice hooks and adds no heap events).

A ``scale`` section times datacenter-scale machine construction
(64/256/1024 nodes, lazy metrics) and records a small KVStore
speedup-vs-nodes curve on crossbar and fat-tree fabrics.

A ``shared_store`` section runs 4 concurrent processes, each mapping
the same grid with ``GridExecutor(jobs=1)`` over one fresh store, and
records per-client seconds and the total number of cells computed
(asserted equal to the grid size: the store's claims single-flight
every digest across processes) plus byte-identity with ``cold_jobs1``.

Pool modes with ``jobs > cpu_count`` are annotated ``oversubscribed``:
on such a box the extra workers only add scheduling overhead, so a
sub-1x cold ratio there is an artifact of the host, not a regression.
Wall-clock timing lives here, not in ``src/`` (the determinism lint
bans it there).
"""
import json
import shutil
import sys
import tempfile
import time
from os import cpu_count
from pathlib import Path

from repro import PROTOCOL_LADDER
from repro.apps import APP_REGISTRY
from repro.experiments import ExperimentCache, compute_scale
from repro.runtime.parallel import (GridExecutor, ResultStore, CellSpec,
                                    encode_result)
from repro.runtime.runner import run_svm
from repro.hw import Machine, MachineConfig
from repro.sim import Simulator, Tracer

APPS = ("FFT", "Water-spatial")
TRACE_CALLS = 200_000


def grid_specs():
    return [CellSpec(kind="svm", app=app, features=feats,
                     config=MachineConfig())
            for app in APPS for feats in PROTOCOL_LADDER]


def timed_map(jobs: int, root: Path):
    specs = grid_specs()
    t0 = time.perf_counter()  # repro: noqa[wall-clock] — benchmarks wall time
    # jobs_force: the bench times the pool the mode names, even on a
    # box with fewer cores (the oversubscribed annotation covers it)
    out = GridExecutor(jobs=jobs, store=ResultStore(root),
                       jobs_force=True).map(specs)
    elapsed = time.perf_counter() - t0  # repro: noqa[wall-clock] — benchmarks wall time
    return elapsed, {d: encode_result(r) for d, r in out.items()}


def tracer_bench() -> dict:
    rejected = Tracer(categories=())
    t0 = time.perf_counter()  # repro: noqa[wall-clock] — benchmarks wall time
    for i in range(TRACE_CALLS):
        rejected.record(1.0, "fetch.ok", gid=i, rank=0)
    t_rej = time.perf_counter() - t0  # repro: noqa[wall-clock] — benchmarks wall time
    admitted = Tracer(capacity=1000)
    t0 = time.perf_counter()  # repro: noqa[wall-clock] — benchmarks wall time
    for i in range(TRACE_CALLS):
        admitted.record(1.0, "fetch.ok", gid=i, rank=0)
    t_adm = time.perf_counter() - t0  # repro: noqa[wall-clock] — benchmarks wall time
    assert len(rejected.events) == 0 and admitted.count("fetch.ok") > 0
    return {
        "calls": TRACE_CALLS,
        "rejected_ns_per_call": 1e9 * t_rej / TRACE_CALLS,
        "admitted_ns_per_call": 1e9 * t_adm / TRACE_CALLS,
        "rejection_speedup": t_adm / t_rej,
    }


def _timed_cell(config: MachineConfig, telemetry=None):
    """One FFT/Base run: (wall seconds, kernel events dispatched)."""
    dispatched = []
    orig_run = Simulator.run

    def counting_run(self, until=None):
        result = orig_run(self, until)
        dispatched.append(self.events_dispatched)
        return result

    Simulator.run = counting_run
    try:
        t0 = time.perf_counter()  # repro: noqa[wall-clock] — benchmarks wall time
        run_svm(APP_REGISTRY["FFT"](), PROTOCOL_LADDER[0], config=config,
                telemetry=telemetry)
        elapsed = time.perf_counter() - t0  # repro: noqa[wall-clock] — benchmarks wall time
    finally:
        Simulator.run = orig_run
    return elapsed, dispatched[-1]


def telemetry_bench() -> dict:
    """ns per dispatched event with a TimeSeriesSampler attached at the
    default 1000 us cadence vs an unsampled run, on the same cell.

    The sampler rides slice hooks (no heap events), so the event count
    is identical either way and the overhead fraction isolates the
    pure probe-polling cost.
    """
    from repro.obs import TimeSeriesSampler
    config = MachineConfig()
    _timed_cell(config)  # warm off the clock
    t_off, ev_off = _timed_cell(config)
    t_on, ev_on = _timed_cell(config,
                              telemetry=TimeSeriesSampler(
                                  cadence_us=1000.0))
    assert ev_on == ev_off, "sampling must not add kernel events"
    return {
        "cell": "FFT/Base",
        "cadence_us": 1000.0,
        "off": {"seconds": round(t_off, 3),
                "ns_per_event": round(1e9 * t_off / ev_off, 1)},
        "on": {"seconds": round(t_on, 3),
               "ns_per_event": round(1e9 * t_on / ev_on, 1)},
        "overhead_fraction": round(t_on / t_off - 1.0, 4),
    }


def scale_bench() -> dict:
    """Datacenter-scale machine construction plus a mini scaling curve."""
    construction_ms = {}
    for nodes in (64, 256, 1024):
        cfg = MachineConfig(nodes=nodes, procs_per_node=1)
        t0 = time.perf_counter()  # repro: noqa[wall-clock] — benchmarks wall time
        Machine(cfg)
        construction_ms[str(nodes)] = round(
            1e3 * (time.perf_counter() - t0), 2)  # repro: noqa[wall-clock] — benchmarks wall time
    t0 = time.perf_counter()  # repro: noqa[wall-clock] — benchmarks wall time
    rows = compute_scale(app_name="KVStore", node_counts=(4, 16, 64),
                         topologies=("crossbar", "fat-tree"),
                         cache=ExperimentCache())
    elapsed = time.perf_counter() - t0  # repro: noqa[wall-clock] — benchmarks wall time
    return {
        "machine_construction_ms": construction_ms,
        "kvstore_curve": [
            {"topology": r["topology"], "protocol": r["protocol"],
             "nodes": r["nodes"], "speedup": round(r["speedup"], 2)}
            for r in rows],
        "curve_seconds": round(elapsed, 3),
    }


N_CLIENTS = 4


def _shared_store_client(root: str, barrier, queue) -> None:
    """One client process: map the grid over the shared store, and
    report (seconds, cells computed here, encoded results)."""
    from repro.runtime import parallel
    computed = []
    evaluate = parallel.evaluate_cell

    def counting(spec):
        computed.append(spec)
        return evaluate(spec)
    parallel.evaluate_cell = counting
    executor = GridExecutor(jobs=1, store=ResultStore(root))
    specs = grid_specs()
    barrier.wait(timeout=120)
    t0 = time.perf_counter()  # repro: noqa[wall-clock] — benchmarks wall time
    out = executor.map(specs)
    elapsed = time.perf_counter() - t0  # repro: noqa[wall-clock] — benchmarks wall time
    queue.put((elapsed, len(computed),
               {d: encode_result(r) for d, r in out.items()}))


def shared_store_bench(reference: dict) -> dict:
    """4 concurrent client processes over one fresh store: every digest
    computed exactly once in total, every client's results
    byte-identical to the in-process jobs=1 grid."""
    import multiprocessing
    context = multiprocessing.get_context("spawn")
    tmp = Path(tempfile.mkdtemp(prefix="repro-bench-shared-"))
    try:
        barrier = context.Barrier(N_CLIENTS)
        queue = context.Queue()
        procs = [context.Process(target=_shared_store_client,
                                 args=(str(tmp), barrier, queue))
                 for _ in range(N_CLIENTS)]
        for proc in procs:
            proc.start()
        reports = [queue.get(timeout=600) for _ in procs]
        for proc in procs:
            proc.join()
        leftover_locks = list(tmp.glob("v*/*/*.lock"))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    computed = sum(n for _, n, _ in reports)
    assert computed == len(reference), \
        f"single-flight violated: {computed} cells computed for " \
        f"{len(reference)} digests"
    assert not leftover_locks, leftover_locks
    for _, _, encoded in reports:
        assert encoded == reference, \
            "shared-store results diverged from in-process jobs=1"
    return {
        "grid_cells": len(reference),
        "clients": N_CLIENTS,
        "cpu_count": cpu_count(),
        "executor_jobs": 1,
        "per_client_seconds": sorted(round(s, 3) for s, _, _ in reports),
        "computed_per_client": sorted(n for _, n, _ in reports),
        "computed_total": computed,
        "byte_identical_to_cold_jobs1": True,
    }


def main(out: str) -> None:
    tmp = Path(tempfile.mkdtemp(prefix="repro-bench-grid-"))
    try:
        modes = {}
        results = {}
        for name, jobs, root in (
                ("cold_jobs1", 1, tmp / "j1"),
                ("cold_jobs4", 4, tmp / "j4"),
                ("warm_jobs1", 1, tmp / "j1"),
                ("warm_jobs4", 4, tmp / "j4")):
            elapsed, encoded = timed_map(jobs, root)
            modes[name] = {"jobs": jobs, "seconds": round(elapsed, 3),
                           "oversubscribed": jobs > (cpu_count() or 1)}
            results[name] = encoded
            tag = "  [oversubscribed]" if modes[name]["oversubscribed"] \
                else ""
            print(f"{name:12s} jobs={jobs}  {elapsed:7.2f}s  "
                  f"({len(encoded)} cells){tag}")
        identical = all(results[m] == results["cold_jobs1"]
                        for m in modes)
        assert identical, "determinism contract violated across modes"
        trace = tracer_bench()
        print(f"tracer: rejected {trace['rejected_ns_per_call']:.0f} "
              f"ns/call vs admitted {trace['admitted_ns_per_call']:.0f} "
              f"ns/call ({trace['rejection_speedup']:.1f}x)")
        telemetry = telemetry_bench()
        print(f"telemetry: {telemetry['off']['ns_per_event']:.0f} "
              f"ns/event unsampled vs {telemetry['on']['ns_per_event']:.0f} "
              f"ns/event sampled "
              f"({telemetry['overhead_fraction']:+.1%} overhead)")
        scale = scale_bench()
        print(f"scale: 1024-node machine in "
              f"{scale['machine_construction_ms']['1024']:.0f} ms, "
              f"KVStore curve ({len(scale['kvstore_curve'])} cells) in "
              f"{scale['curve_seconds']:.1f}s")
        shared = shared_store_bench(results["cold_jobs1"])
        print(f"shared store: {shared['clients']} processes x "
              f"{shared['grid_cells']} cells, {shared['computed_total']} "
              f"computed, per-client seconds "
              f"{shared['per_client_seconds']}")
        doc = {
            "grid": {"apps": list(APPS),
                     "variants": [f.name for f in PROTOCOL_LADDER],
                     "cells": len(results["cold_jobs1"])},
            "cpu_count": cpu_count(),
            "modes": modes,
            "results_identical_across_modes": identical,
            "cold_speedup_jobs4": round(
                modes["cold_jobs1"]["seconds"]
                / modes["cold_jobs4"]["seconds"], 2),
            "warm_speedup": round(
                modes["cold_jobs1"]["seconds"]
                / max(modes["warm_jobs1"]["seconds"], 1e-9), 1),
            "tracer_record": {k: (round(v, 1)
                                  if isinstance(v, float) else v)
                              for k, v in trace.items()},
            "telemetry": telemetry,
            "scale": scale,
            "shared_store": shared,
        }
        with open(out, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {out}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "BENCH_grid.json")
