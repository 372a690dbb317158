"""Golden regression guards on headline numbers.

Loose bands around the currently-calibrated results; a change that
moves these likely recalibrates the whole reproduction and should be
made deliberately (then update these bands and EXPERIMENTS.md).

The pinned-hash tests at the bottom are exact: the default (crossbar)
configuration must produce byte-identical traces to the pre-topology
simulator.  Any intentional recalibration must update the pins.
"""

import hashlib
import json

import pytest

from repro import BASE, GENIMA, run_sequential, run_svm, speedup
from repro.apps import FFT, BarnesSpatial, WaterNsquared, WaterSpatial
from repro.sim import Simulator, Tracer


def test_water_spatial_genima_speedup_band():
    seq = run_sequential(WaterSpatial())
    result = run_svm(WaterSpatial(), GENIMA)
    assert speedup(seq, result) == pytest.approx(9.9, rel=0.15)


def test_water_nsquared_improvement_band():
    seq = run_sequential(WaterNsquared(molecules=512, steps=1))
    base = run_svm(WaterNsquared(molecules=512, steps=1), BASE)
    genima = run_svm(WaterNsquared(molecules=512, steps=1), GENIMA)
    gain = base.time_us / genima.time_us - 1.0
    # NI locks buy a substantial fraction on the lock-heavy app
    assert 0.3 < gain < 2.0, gain


def test_sequential_times_are_stable():
    seq = run_sequential(WaterSpatial())
    assert seq.time_us == pytest.approx(426_000, rel=0.05)


# ------------------------------------------------- span-trace determinism

def _spanned_run(spans=True):
    tracer = Tracer()
    result = run_svm(BarnesSpatial(), GENIMA, tracer=tracer, spans=spans)
    return tracer, result


def test_spanned_trace_is_byte_identical_across_runs():
    tr1, r1 = _spanned_run()
    tr2, r2 = _spanned_run()
    assert r1.time_us == r2.time_us
    assert tr1.to_jsonl() == tr2.to_jsonl()


#: (app, features, spanned-trace sha256, completion time) captured on
#: the default crossbar config before the topology layer landed.
GOLDEN_PINS = [
    (WaterSpatial, BASE,
     "1442d9ae70de2d3504aef26b2f006bedd6b2afe6f1e42784cb3e054e14afd266",
     51455.38932828744),
    (BarnesSpatial, GENIMA,
     "57cedce95fcabb5399b87905ddb5a6efc0135092f126c3fa1784dc495d3dc4e8",
     54653.601676691804),
]


@pytest.mark.parametrize("app_cls,features,sha,time_us", GOLDEN_PINS,
                         ids=["water-base", "barnes-genima"])
def test_default_crossbar_traces_byte_identical_to_pre_topology(
        app_cls, features, sha, time_us):
    tracer = Tracer()
    result = run_svm(app_cls(), features, tracer=tracer, spans=True)
    assert result.time_us == time_us
    digest = hashlib.sha256(tracer.to_jsonl().encode()).hexdigest()
    assert digest == sha


#: Kernel events dispatched by the golden cells and FFT/Base.  Any
#: change to the dispatch order or to which events exist moves these,
#: so a kernel rewrite that keeps them keeps the event sequence.
#:
#: Each pin is the earlier count less the events that used to be
#: dispatched with no callback, counted per creation site by an
#: instrumented build of the previous kernel:
#:
#:   cell                   before   arrive put  async send  lone fault   now
#:   Water-spatial/Base     33,864     -1,037       -810       -884     31,133
#:   Barnes-spatial/GeNIMA 196,415    -10,314     -9,582       -250    176,269
#:   FFT/Base              162,420     -6,948     -4,632     -4,352    146,488
#:
#: (arrive put: the granted event ``NIC.arrive`` discarded from
#: ``in_queue.put``; async send: the ``delivered`` event of a
#: ``VMMC.send`` without ``await_delivery``; lone fault: the in-flight
#: event of a page fetch no second fault joined.)
DISPATCH_PINS = [
    (WaterSpatial, BASE, 31_133),
    (BarnesSpatial, GENIMA, 176_269),
    (FFT, BASE, 146_488),
]


DISPATCH_IDS = ["water-base", "barnes-genima", "fft-base"]


# The sampled cases: a TimeSeriesSampler rides slice hooks and must
# add no kernel event, so the counts stay the unsampled pins.  The
# profiled cases carry the Figure-3 phase set and the telemetry probes
# on that one sampler.
@pytest.mark.parametrize(
    "app_cls,features,events,mode",
    [(*pin, None) for pin in DISPATCH_PINS]
    + [(*pin, "sampled") for pin in DISPATCH_PINS]
    + [(*pin, "profiled") for pin in DISPATCH_PINS],
    ids=DISPATCH_IDS + [f"{name}-sampled" for name in DISPATCH_IDS]
    + [f"{name}-profiled" for name in DISPATCH_IDS])
def test_events_dispatched_pinned(monkeypatch, app_cls, features, events,
                                  mode):
    from repro.obs import TimeSeriesSampler, build_profile, probe_phases
    dispatched = []
    orig_run = Simulator.run

    def counting_run(self, until=None):
        result = orig_run(self, until)
        dispatched.append(self.events_dispatched)
        return result

    monkeypatch.setattr(Simulator, "run", counting_run)
    sampler = TimeSeriesSampler(cadence_us=1000.0) if mode else None
    if mode == "profiled":
        probe_phases(sampler)
    result = run_svm(app_cls(), features, telemetry=sampler)
    assert dispatched[-1] == events
    if mode:
        assert result.telemetry["samples"] > 0
    if mode == "profiled":
        assert build_profile(sampler, result).slices


def _counter_digest(backend) -> str:
    """sha256 over every station, queue and monitor counter of a run.

    None of these is in the cell digest, yet ``repro metrics`` and the
    profile's ``busy.<station>`` timelines read them; a station hold
    that skipped its accrual would change this digest and no other.
    """
    machine = backend.machine
    monitor = backend.monitor

    def res(r):
        return [r.name, r.total_requests, r.total_wait_time, r.busy_time]

    stations = [res(node.protocol_proc) for node in machine.nodes]
    for nic in machine.nics:
        stations.append(res(nic.lanai))
        for rs in (nic.pci, nic.out_link):
            stations.append(res(rs.station) + [rs.total_bytes])
        for q in (nic.post_queue, nic.out_queue, nic.in_queue):
            stations.append([q.name, q.total_puts, q.total_put_stall_time,
                             q.max_occupancy])
    blob = json.dumps({"stations": stations,
                       "packets_by_kind": monitor.packets_by_kind,
                       "bytes_by_kind": monitor.bytes_by_kind,
                       "metrics": machine.metrics.snapshot()},
                      sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


#: (app, features, counter sha256) for FFT/Base, Barnes-spatial/GeNIMA
#: and a small Water-nsquared/GeNIMA, whose locks take the NI-lock path.
COUNTER_PINS = [
    (FFT, BASE,
     "aca7f831a7fff72091e23ed01bba8d9d76bfe068d02edcf753e2d3f0d4d557f3"),
    (BarnesSpatial, GENIMA,
     "88421b27bdf0294f79fef38685e1fe21b5fbb32431c641b49545a87f376b1d1d"),
    (lambda: WaterNsquared(molecules=256, steps=1), GENIMA,
     "0db1cabbc5d7b6ca965cf587ba3520ad5cf6a8480ad112b800ab4677c001bc2f"),
]


@pytest.mark.parametrize("make_app,features,sha", COUNTER_PINS,
                         ids=["fft-base", "barnes-genima",
                              "water-nsquared-genima"])
def test_station_counters_pinned(make_app, features, sha):
    from repro.hw import MachineConfig
    from repro.runtime import SVMBackend, run_on_backend
    backend = SVMBackend(MachineConfig(), features)
    run_on_backend(make_app(), backend, system=features.name)
    assert _counter_digest(backend) == sha


@pytest.mark.parametrize("app_cls,features,sha,time_us", GOLDEN_PINS,
                         ids=["water-base", "barnes-genima"])
def test_telemetry_sampling_does_not_perturb_the_schedule(
        app_cls, features, sha, time_us):
    """A TimeSeriesSampler (no tracer) rides slice hooks only: the
    sampled run's trace and completion time must still match the
    golden pins byte-for-byte."""
    from repro.obs import TimeSeriesSampler
    tracer = Tracer()
    sampler = TimeSeriesSampler(cadence_us=500.0)
    result = run_svm(app_cls(), features, tracer=tracer, spans=True,
                     telemetry=sampler)
    assert result.time_us == time_us
    digest = hashlib.sha256(tracer.to_jsonl().encode()).hexdigest()
    assert digest == sha
    assert result.telemetry["samples"] > 0


def test_spans_do_not_perturb_the_schedule():
    """Arming spans adds span.* records but changes nothing else:
    the non-span event stream and the run result stay identical."""
    tr_off, r_off = _spanned_run(spans=False)
    tr_on, r_on = _spanned_run(spans=True)
    assert r_on.time_us == r_off.time_us
    assert not [e for e in tr_off.events
                if e.category.startswith("span.")]
    span_count = 0
    base = [(e.t, e.category, e.fields) for e in tr_off.events]
    kept = []
    for e in tr_on.events:
        if e.category.startswith("span."):
            span_count += 1
        else:
            kept.append((e.t, e.category, e.fields))
    assert span_count > 0
    assert kept == base


def _sampled_registry_digest(pin: str) -> str:
    """sha256 over what a sampled run exports through the registry and
    the sampler.

    ``lossy``: an 8-node fat-tree KVStore/GeNIMA run with loss, dup and
    reorder at 0.02 (seed 3) — the machine's metrics snapshot (with its
    ``faults.*``/``retx.*`` gauges), ``result.stats`` (with the fault
    counters) and the telemetry summary (with ``retx.outstanding``).
    ``net.in_flight`` is left out: the digest was taken while it still
    counted dropped packets as in flight, and
    ``test_faults.py::test_no_packet_in_flight_after_a_faulted_run``
    checks it.

    ``traced``: an unfaulted Barnes-spatial/Base run sampled under a
    tracer — its OpenMetrics text and its ``ts.*`` trace rows, whose
    order follows the order the probes were registered in.
    """
    from repro.apps import APP_REGISTRY
    from repro.hw import FaultConfig, MachineConfig
    from repro.obs import TimeSeriesSampler, render_openmetrics
    from repro.runtime import SVMBackend, run_on_backend
    if pin == "lossy":
        config = MachineConfig(nodes=8, topology="fat-tree",
                               faults=FaultConfig(loss=0.02, dup=0.02,
                                                  reorder=0.02, seed=3))
        backend = SVMBackend(config, GENIMA)
        sampler = TimeSeriesSampler(cadence_us=500.0)
        result = run_on_backend(APP_REGISTRY["KVStore"](), backend,
                                system="GeNIMA", telemetry=sampler)
        telemetry = dict(result.telemetry)
        telemetry["metrics"] = {
            k: v for k, v in telemetry["metrics"].items()
            if k != "net.in_flight"}
        blob = json.dumps({"metrics": backend.machine.metrics.snapshot(),
                           "stats": result.stats,
                           "telemetry": telemetry}, sort_keys=True)
    else:
        tracer = Tracer()
        backend = SVMBackend(MachineConfig(), BASE, tracer=tracer)
        sampler = TimeSeriesSampler(cadence_us=500.0, tracer=tracer)
        result = run_on_backend(BarnesSpatial(), backend, system="Base",
                                telemetry=sampler)
        rows = "\n".join(e.to_json() for e in tracer.events
                         if e.category.startswith("ts."))
        blob = render_openmetrics(backend.machine.metrics.snapshot(),
                                  result.telemetry) + rows
    return hashlib.sha256(blob.encode()).hexdigest()


#: Registry, stats, telemetry and ``ts.*`` row digests of two sampled
#: runs (see :func:`_sampled_registry_digest`).
SAMPLED_PINS = [
    ("lossy",
     "dd0232695957021e682bc9c64c72af7d95fd8365db4e4ddbba659825815b3777"),
    ("traced",
     "241b877eadd6134b66ce647672093bf19e94dfddb5d0d8933b1d9bb912a90050"),
]


@pytest.mark.parametrize("pin,sha", SAMPLED_PINS,
                         ids=[pin for pin, _ in SAMPLED_PINS])
def test_sampled_exports_pinned(pin, sha):
    assert _sampled_registry_digest(pin) == sha
