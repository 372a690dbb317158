"""Run driver: applications x backends -> RunResults.

Handles the paper's measurement methodology: an untimed initialization
phase (cold page faults, region touch) followed by a barrier, after
which accounting is reset and the timed section begins.
"""

from __future__ import annotations

from typing import Optional

from ..hw import MachineConfig
from ..sim import TimeBuckets
from ..svm import ProtocolFeatures
from .backends import LocalBackend, SVMBackend
from .results import RunResult

__all__ = ["run_svm", "run_sequential", "run_hwdsm", "run_on_backend"]


def run_on_backend(app, backend, system: str,
                   nprocs: Optional[int] = None,
                   telemetry=None) -> RunResult:
    """Execute ``app`` on ``backend`` and collect a RunResult.

    ``telemetry`` (a :class:`repro.obs.TimeSeriesSampler`) samples the
    probes in the machine's metrics registry, plus the Figure-3 phase set
    when the caller added it (:func:`repro.obs.probe_phases`), at slice
    boundaries; only SVM backends (those with a protocol) can be
    sampled.  Its summary lands in ``RunResult.telemetry``.  The
    sampler is an engine-hook observer: an instrumented run's event
    schedule is byte-identical to a bare one.

    A backend runs one application: once the result is collected the
    backend is closed (:meth:`Backend.close`), so a caller that drops
    it frees the whole run by reference counting.
    """
    if nprocs is None:
        nprocs = backend.nprocs
    elif (not isinstance(nprocs, int) or isinstance(nprocs, bool)
            or nprocs < 1):
        raise ValueError(f"nprocs must be an integer >= 1, got {nprocs!r}")
    sim = backend.sim
    regions = app.setup(backend)
    start_times = [0.0] * nprocs
    end_times = [0.0] * nprocs
    finished = [0]

    protocol = getattr(backend, "protocol", None)
    monitor = getattr(backend, "monitor", None)
    spans = getattr(backend, "spans", None)
    if telemetry is not None:
        if protocol is None:
            raise ValueError(
                f"{system}: telemetry sampling requires an SVM backend")
        telemetry.attach(backend)

    def driver(rank):
        ctx = app.context(backend, rank, nprocs)
        yield from app.init_process(ctx, regions)
        yield from backend.op_barrier(rank)
        start_times[rank] = sim.now
        if protocol is not None:
            # Timed section starts: clear this rank's accounting.
            protocol.buckets[rank] = TimeBuckets()
            protocol.barrier_protocol_us[rank] = 0.0
        # The rank's timed section is one root span; the critical-path
        # extractor walks backwards from the last rank's "run" end.
        sid = spans.begin("run", f"r{rank}", bucket="compute",
                          rank=rank) if spans is not None else None
        yield from app.process(ctx, regions)
        if spans is not None:
            spans.end(sid)
        end_times[rank] = sim.now
        finished[0] += 1

    baseline = _stats_snapshot(backend)
    for rank in range(nprocs):
        sim.process(driver(rank), name=f"{app.name}.{rank}")
    sim.run()
    if finished[0] != nprocs:
        raise RuntimeError(
            f"{app.name}/{system}: only {finished[0]}/{nprocs} "
            f"processes finished (deadlock?)")
    if telemetry is not None:
        telemetry.finalize()

    result = RunResult(
        app=app.name,
        system=system,
        nprocs=nprocs,
        time_us=max(end_times) - min(start_times),
        wall_us=[end_times[r] - start_times[r] for r in range(nprocs)],
    )
    if protocol is not None:
        result.buckets = list(protocol.buckets)
        result.barrier_protocol_us = list(protocol.barrier_protocol_us)
        result.mprotect_us = protocol.mprotect.grand_total_us
        result.stats = _stats_delta(baseline, _stats_snapshot(backend))
        # End-of-run invariant, sum(buckets) == wall per rank, through
        # the runtime invariant checker when one is installed (--check).
        checker = getattr(backend, "invariants", None)
        if checker is not None:
            checker.on_run_complete(result)
    if monitor is not None:
        result.monitor_small = monitor.ratios("small").as_dict()
        result.monitor_large = monitor.ratios("large").as_dict()
    if telemetry is not None:
        result.telemetry = telemetry.summary()
    backend.close()
    return result


def _stats_snapshot(backend) -> dict:
    protocol = getattr(backend, "protocol", None)
    if protocol is None:
        return {}
    snap = {
        "interrupts": protocol.total_interrupts,
        "page_fetches": protocol.page_fetches,
        "fetch_retries": protocol.fetch_retries,
        "diffs_sent": protocol.diffs_sent,
        "diff_runs_sent": protocol.diff_runs_sent,
        "wn_messages": protocol.wn_messages,
        "messages": protocol.vmmc.messages_sent,
        "bytes": protocol.vmmc.bytes_sent,
        "lock_acquires": protocol.locks.acquires,
    }
    machine = protocol.machine
    for layer in (machine.fault_injector, machine.reliability):
        if layer is not None:
            snap.update((name, getattr(layer, name))
                        for name in layer.COUNTERS)
    return snap


def _stats_delta(before: dict, after: dict) -> dict:
    return {k: after[k] - before.get(k, 0) for k in after}


def run_svm(app, features: ProtocolFeatures,
            config: Optional[MachineConfig] = None,
            tracer=None, check: bool = False, spans: bool = False,
            telemetry=None) -> RunResult:
    """Run ``app`` on the SVM cluster under one protocol variant.

    ``tracer`` records the protocol event stream (for the offline
    sanitizer); ``check`` installs the runtime invariant checker;
    ``spans`` arms causal span recording into the tracer (required for
    :mod:`repro.analysis.critpath`); ``telemetry`` attaches a
    :class:`repro.obs.TimeSeriesSampler` — all without perturbing the
    schedule.
    """
    backend = SVMBackend(config or MachineConfig(), features,
                         tracer=tracer, check=check, spans=spans)
    return run_on_backend(app, backend, system=features.name,
                          telemetry=telemetry)


def run_sequential(app, config: Optional[MachineConfig] = None) -> RunResult:
    """Uniprocessor baseline (no SVM library)."""
    backend = LocalBackend(config)
    return run_on_backend(app, backend, system="seq", nprocs=1)


def run_hwdsm(app, config=None) -> RunResult:
    """The hardware-coherent yardstick (Origin 2000 stand-in)."""
    # Imported here: repro.hwdsm depends on repro.runtime.context, so a
    # top-level import would be circular.
    from ..hwdsm import HWDSMBackend
    backend = HWDSMBackend(config)
    return run_on_backend(app, backend, system="Origin", nprocs=backend.nprocs)
