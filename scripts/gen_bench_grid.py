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

A ``serve`` section benchmarks the `repro serve` daemon: 4 concurrent
clients cold-submitting the same grid (recording the single-flight
dedup ratio and asserting each digest computed exactly once and
byte-identity with the in-process run), then repeated warm
resubmissions for p50/p99 submit-to-result latency and requests/sec
(gate: warm p50 < 10 ms).

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


def _pct(sorted_vals, q: float) -> float:
    idx = min(len(sorted_vals) - 1, round(q * (len(sorted_vals) - 1)))
    return sorted_vals[idx]


WARM_ITERS = 30


def serve_bench(legacy_encoded: dict) -> dict:
    """The daemon under load: 4 concurrent cold clients submitting the
    same 10-cell grid (single-flight dedup), then repeated warm
    resubmission against the daemon's in-memory memo.

    Asserts the serving acceptance criteria: each unique digest
    computed exactly once across the 4 clients, payloads byte-identical
    to the in-process jobs=1 grid, and warm resubmission p50 under
    10 ms.
    """
    import threading

    from repro.serve import DaemonThread, ServeClient

    specs = grid_specs()
    n_clients = 4
    tmp = Path(tempfile.mkdtemp(prefix="repro-bench-serve-"))
    try:
        with DaemonThread(workers="thread", jobs=1,
                          store=ResultStore(tmp)) as handle:
            cold_s, payloads, errors = {}, {}, []
            barrier = threading.Barrier(n_clients)

            def one_client(idx: int) -> None:
                try:
                    barrier.wait(timeout=60.0)
                    t0 = time.perf_counter()  # repro: noqa[wall-clock] — benchmarks wall time
                    payloads[idx] = ServeClient(handle.url).submit(specs)
                    cold_s[idx] = time.perf_counter() - t0  # repro: noqa[wall-clock] — benchmarks wall time
                except Exception as err:  # surfaced below
                    errors.append(err)

            threads = [threading.Thread(target=one_client, args=(i,))
                       for i in range(n_clients)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors, errors

            counters = ServeClient(handle.url).stats()["counters"]
            assert counters["computed"] == len(specs), \
                "single-flight violated: a digest computed more than once"
            dedup_ratio = 1.0 - counters["computed"] / counters["cells"]
            for idx in range(n_clients):
                assert payloads[idx].keys() == legacy_encoded.keys()
                for digest, payload in payloads[idx].items():
                    assert payload["result"] == legacy_encoded[digest], \
                        "daemon payload diverged from in-process jobs=1"

            warm_client = ServeClient(handle.url)
            warm_ms = []
            t_all0 = time.perf_counter()  # repro: noqa[wall-clock] — benchmarks wall time
            for _ in range(WARM_ITERS):
                t0 = time.perf_counter()  # repro: noqa[wall-clock] — benchmarks wall time
                warm_client.submit(specs)
                warm_ms.append(1e3 * (time.perf_counter() - t0))  # repro: noqa[wall-clock] — benchmarks wall time
            warm_total_s = time.perf_counter() - t_all0  # repro: noqa[wall-clock] — benchmarks wall time
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    warm_ms.sort()
    cold_sorted = sorted(cold_s.values())
    warm_p50 = _pct(warm_ms, 0.50)
    assert warm_p50 < 10.0, \
        f"warm resubmission p50 {warm_p50:.1f} ms >= 10 ms gate"
    return {
        "grid_cells": len(specs),
        "clients": n_clients,
        "cold": {
            "per_client_seconds": [round(s, 3) for s in cold_sorted],
            "p50_ms": round(1e3 * _pct(cold_sorted, 0.50), 1),
            "p99_ms": round(1e3 * _pct(cold_sorted, 0.99), 1),
        },
        "warm": {
            "iterations": WARM_ITERS,
            "p50_ms": round(warm_p50, 2),
            "p99_ms": round(_pct(warm_ms, 0.99), 2),
            "requests_per_sec": round(WARM_ITERS / warm_total_s, 1),
        },
        "dedup": {
            "cells_requested": counters["cells"],
            "computed": counters["computed"],
            "attached": counters["attached"],
            "memo_hits": counters["memo_hits"],
            "ratio": round(dedup_ratio, 3),
        },
        "byte_identical_to_inprocess": True,
        "warm_p50_under_10ms": True,
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
        serve = serve_bench(results["cold_jobs1"])
        print(f"serve: {serve['clients']} clients x "
              f"{serve['grid_cells']} cells, dedup ratio "
              f"{serve['dedup']['ratio']:.2f}, warm p50 "
              f"{serve['warm']['p50_ms']:.1f} ms "
              f"({serve['warm']['requests_per_sec']:.0f} req/s)")
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
            "serve": serve,
        }
        with open(out, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {out}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "BENCH_grid.json")
