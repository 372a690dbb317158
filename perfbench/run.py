"""Host benchmark of the GeNIMA reproduction.

    python3 perfbench/run.py --workload ladder --seed 0 --seconds 15 --trace 0

Run from the root of a checkout.  Workloads, their operation lists and
the per-layer metric table are described in ``perfbench/spec.json``.

``--trace 0`` measures the end-to-end metrics with no instrument
attached.  ``--trace 1`` runs the same measured passes with timers and
counters on a few public functions, then profiles further passes under
``cProfile`` and prints the per-layer ledger: each layer's share of
profiled self time, scaled to the untraced ``wall_s``.  Every timing is
scaled to a reference host speed, sampled while it ran (``reference.py``).

Human-readable lines come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Every store lives in a scratch directory inside the
checkout (``.perfbench_tmp``), removed on exit; ``$REPRO_CACHE_DIR``
and ``~/.cache/repro`` are never read.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((HERE / "spec.json").read_text())
CHILD = HERE / "child.py"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(SPEC["workloads"]))
    parser.add_argument("--seed", type=int,
                        default=SPEC["seeds"]["default"])
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def host_facts(fingerprint: str) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu, "fingerprint": fingerprint}


def child_env() -> dict:
    """The setup probes' environment: no store override, and bytecode
    caching on, so that after the unmeasured first probe every probe
    starts from compiled modules, as a user's repeated runs do."""
    env = dict(os.environ)
    env.pop("REPRO_CACHE_DIR", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def probe_setup(workload: str, seed: int, store: Path) -> float:
    """Seconds from spawning a fresh interpreter until it could start
    the workload's first operation."""
    start = time.monotonic()
    out = subprocess.run(
        [sys.executable, str(CHILD), "setup", workload, str(seed),
         str(store)],
        check=True, capture_output=True, text=True, timeout=120,
        env=child_env())
    return float(out.stdout.strip().splitlines()[-1]) - start


def probe_slots(probes: int, passes: int) -> list:
    """How many setup probes to run before each pass (the last slot is
    after the last pass).  Probes are spread evenly over the run, so a
    run's setup_s samples the whole run, not its first second."""
    slots = [0] * (passes + 1)
    for i in range(probes):
        slots[round(i * passes / max(probes - 1, 1))] += 1
    return slots


def tail(samples: list):
    """``(value, percentile)`` at the highest percentile, up to p99, with
    at least ten samples beyond it; the maximum when that percentile
    would not be above the median.  Beyond p99 a long run's samples time
    host hiccups (a collector pause, a descheduled CPU), not the code."""
    ordered = sorted(samples)
    n = len(ordered)
    rank = min(n - 10, math.ceil(0.99 * n))
    if rank <= n / 2:
        return ordered[-1], 100.0
    return ordered[rank - 1], 100.0 * rank / n


class Run:
    """Measured passes of one workload, and what they produced."""

    def __init__(self, workload, speed, instruments=None):
        self.workload = workload
        self.speed = speed
        self.instruments = instruments
        self.pass_s: list = []
        #: operation name -> ``(start, end)`` of it in each pass.
        self.op_times: dict = {}
        self.attempted = 0
        self.failed = 0
        self.failures: dict = {}
        self.stats: dict = {}

    def one_pass(self, profile=None) -> None:
        """Time every operation of one pass (under ``profile`` if given),
        then check the outcomes off the clock."""
        ops = self.workload.begin_pass()
        outcomes = {}
        errors = {}
        gc.collect()
        perf = time.perf_counter
        speed = self.speed
        pass_start = perf()
        for name, thunk in ops:
            speed.due()
            if profile is not None:
                profile.enable()
            start = perf()
            try:
                outcomes[name] = thunk()
            except Exception as exc:
                errors[name] = f"raised {exc!r}"
                if not self.failures:
                    traceback.print_exc(file=sys.stderr)
            end = perf()
            if profile is not None:
                profile.disable()
            self.op_times.setdefault(name, []).append((start, end))
            if self.instruments is not None:
                self.instruments.end_op()
        self.pass_s.append(perf() - pass_start)
        self.attempted += len(ops)
        for outcome in outcomes.values():
            for result in outcome.computed:
                for key, value in result.stats.items():
                    self.stats[key] = self.stats.get(key, 0) + value
        errors.update(self.workload.end_pass(outcomes))
        self.failed += len(errors)
        for name, problem in errors.items():
            self.failures.setdefault(name, problem)

    def op_ms(self) -> list:
        """Each operation's median over the run's passes, in ms at the
        reference host speed (see reference.py).

        Percentiles are taken across operations: the cells of a list
        differ in cost by orders of magnitude, and that spread is what a
        user of the grid waits on."""
        speed = self.speed
        return [statistics.median(speed.net_s(start, end) * 1e3
                                  * speed.scale(start, end)
                                  for start, end in times)
                for times in self.op_times.values()]

    def wall_s(self) -> float:
        """Seconds for the operation list at the reference host speed."""
        return sum(self.op_ms()) / 1e3

    def raw_best_wall_s(self) -> float:
        """Seconds for the operation list, each operation at its fastest
        pass as measured: printed beside ``wall_s``, not scaled."""
        net_s = self.speed.net_s
        return sum(min(net_s(start, end) for start, end in times)
                   for times in self.op_times.values())


def passes_for(entry: dict, seconds: float, trace: bool) -> int:
    """Measured passes in a run (see ``sizing`` in spec.json).  A traced
    run spends half its time on them and reports no percentiles, so it
    needs no minimum beyond one pass."""
    if trace:
        return max(1, round(seconds / 2 / entry["nominal_pass_s"]))
    return max(entry["min_passes"],
               round(seconds / entry["nominal_pass_s"]))


def ledger_metrics(run: Run, instruments, layers: dict, passes: int,
                   traced: Run) -> dict:
    wall = run.wall_s()
    total = sum(layers.values()) or 1.0
    per_pass = {key: value / passes for key, value in run.stats.items()}
    counts = {key: value / passes
              for key, value in instruments.counts.items()}
    events = counts.get("events", 0)
    fetches = per_pass.get("page_fetches", 0)
    retries = per_pass.get("fetch_retries", 0)
    messages = per_pass.get("messages", 0)
    retransmits = per_pass.get("retransmits", 0)
    values = {f"{layer}.self_s": share / total * wall
              for layer, share in layers.items()}
    values.update({
        "sim.engine.events": events,
        "sim.engine.ns_per_event": wall * 1e9 / events if events else 0.0,
        "svm.page_fetches": fetches,
        "svm.fetch_retries": retries,
        "svm.fetch_useful_ratio": (fetches / (fetches + retries)
                                   if fetches + retries else 0.0),
        "svm.diffs_sent": per_pass.get("diffs_sent", 0),
        "svm.interrupts": per_pass.get("interrupts", 0),
        "svm.lock_acquires": per_pass.get("lock_acquires", 0),
        "vmmc.messages": messages,
        "vmmc.bytes": per_pass.get("bytes", 0),
        "hw.build_ms": instruments.mean_ms("hw.build"),
        "apps.setup_ms": instruments.mean_ms("apps.setup"),
        "faults.retransmits": retransmits,
        "faults.packets_dropped": per_pass.get("packets_dropped", 0),
        "faults.retx_ratio": retransmits / messages if messages else 0.0,
        "sim.trace.records": counts.get("trace_records", 0),
        "analysis.critpath_ms": instruments.mean_ms("analysis.critpath"),
        "analysis.sanitize_ms": instruments.mean_ms("analysis.sanitize"),
        "runtime.store_load_ms": instruments.mean_ms("runtime.store_load"),
        "runtime.store_write_ms": instruments.mean_ms("runtime.store_write"),
        "runtime.digest_us": instruments.mean_ms("runtime.digest") * 1e3,
        "runtime.decode_ms": instruments.mean_ms("runtime.decode"),
        "runtime.store_hits": counts.get("store_hits", 0),
        "runtime.store_misses": counts.get("store_misses", 0),
        "host.trace_overhead": traced.wall_s() / wall,
        "host.unattributed_frac": layers.get("other", 0.0) / total,
    })
    return values


def host_speed():
    knobs = SPEC["host_speed"]
    return reference.HostSpeed(knobs["reference_ms"], knobs["every_s"],
                               knobs["reps"])


def measure(args, workload, passes: int, scratch: Path):
    """The measured passes.  Untraced, the host's speed is sampled
    during them and setup probes run between them; traced, timers and
    counters wrap public functions instead, and the host's speed is
    sampled between operations.  Setup probes are ``(start, end,
    seconds)``, like operations."""
    setup_times: list = []
    slots = [0] * (passes + 1)
    instruments = None
    if args.trace:
        import ledger
        instruments = ledger.Instruments()
        instruments.install()
    else:
        # The first interpreter compiles bytecode: not measured.
        probe_setup(args.workload, args.seed, scratch / "setup")
        slots = probe_slots(SPEC["sizing"]["setup_probes"], passes)
    speed = host_speed()
    run = Run(workload, speed, instruments)

    def run_passes(count: int) -> None:
        # One timer over consecutive passes: a pass may be far shorter
        # than the sampling period.
        sampling = (contextlib.nullcontext() if args.trace
                    else speed.ticking())
        with sampling:
            for _ in range(count):
                run.one_pass()

    try:
        pending = 0
        for i, probes in enumerate(slots):
            if probes:
                run_passes(pending)
                pending = 0
            for _ in range(probes):
                speed.sample()
                start = time.perf_counter()
                seconds = probe_setup(args.workload, args.seed,
                                      scratch / "setup")
                setup_times.append((start, time.perf_counter(), seconds))
            if i < passes:
                pending += 1
        run_passes(pending)
        speed.sample()
    finally:
        if instruments is not None:
            instruments.remove()
    return run, setup_times, instruments


def end_to_end(run: Run, setup_times: list, passes: int):
    """``(metrics, units, notes)`` of an untraced run."""
    per_op = run.op_ms()
    value, pct = tail(per_op)
    speed = run.speed
    metrics = {
        "wall_s": sum(per_op) / 1e3,
        "cell_ms_p50": statistics.median(per_op),
        "cell_ms_tail": value,
        "setup_s": statistics.median(s * speed.scale(start, end)
                                     for start, end, s in setup_times),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    units = {"wall_s": "s", "cell_ms_p50": "ms", "cell_ms_tail": "ms",
             "setup_s": "s", "peak_rss_mb": "MB"}
    raw_setup_s = statistics.median(s for _, _, s in setup_times)
    notes = {
        "wall_s": f"median of {passes} passes per operation; as measured, "
                  f"best passes {run.raw_best_wall_s():.6g} s",
        "cell_ms_tail": f"p{pct:.1f} of {len(per_op)} operations",
        "setup_s": f"median of {len(setup_times)} interpreters; as "
                   f"measured {raw_setup_s:.6g} s",
    }
    return metrics, units, notes


def per_layer(args, workload, run: Run, instruments, passes: int):
    """``(metrics, units, notes)`` of a traced run: profile further
    passes (at least one, up to half of ``--seconds``) and fold them
    into the layer ledger."""
    import ledger
    profile = cProfile.Profile()
    traced = Run(workload, run.speed)
    while not traced.pass_s or sum(traced.pass_s) < args.seconds / 2:
        traced.one_pass(profile)
    run.speed.sample()
    layers = ledger.profile_layers(profile, SPEC["layers"])
    metrics = ledger_metrics(run, instruments, layers, passes, traced)
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    wall = run.wall_s()
    notes = {f"{layer}.self_s":
             f"{metrics[f'{layer}.self_s'] / wall:6.1%} of wall_s"
             for layer in SPEC["layers"]}
    return metrics, units, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}; run "
              "from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from repro.runtime import code_fingerprint

    pins = json.loads((HERE / "pins.json").read_text())
    scratch_root = ROOT / ".perfbench_tmp"
    scratch = scratch_root / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        facts = host_facts(code_fingerprint())
        workload = workloads.build(args.workload, SPEC, pins, args.seed,
                                   scratch, ROOT)
        workload.prepare()
        passes = passes_for(SPEC["workloads"][args.workload], args.seconds,
                            args.trace)
        run, setup_times, instruments = measure(args, workload, passes,
                                                scratch)
        if args.trace:
            metrics, units, notes = per_layer(args, workload, run,
                                              instruments, passes)
        else:
            metrics, units, notes = end_to_end(run, setup_times, passes)
        report(args, facts, workload, run, passes, metrics, units, notes)
        print(json.dumps({
            "correct": run.failed == 0,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]}
                        for name in units},
        }))
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass  # another run still owns a directory here


def report(args, facts, workload, run, passes, metrics, units,
           notes) -> None:
    pinned = "pinned" if workload.pinned else "unpinned seed: pass-to-pass"
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={passes} operations={run.attempted} "
          f"checks={pinned}")
    print("host " + " ".join(f"{k}={v}" for k, v in facts.items()))
    speed = run.speed
    print(f"host speed: reference kernel median "
          f"{statistics.median(speed.kernel_ms):.4g} ms over "
          f"{len(speed.kernel_ms)} samples; times below are scaled to "
          f"{speed.reference_ms:g} ms")
    for name in units:
        print(f"  {name:<26} {metrics[name]:>14.6g} {units[name]:<6} "
              f"{notes.get(name, '')}")
    print(f"  {'fail_frac':<26} {run.failed / run.attempted:>14.6g} "
          f"{'ratio':<6} {run.failed}/{run.attempted}")
    for name, problem in sorted(run.failures.items()):
        print(f"  FAILED {name}: {problem}")


if __name__ == "__main__":
    sys.exit(main())
