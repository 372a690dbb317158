"""Tests for repro.obs: metrics registry, slice hooks, the phase set's
profiles, reports and the sum-equals-wall time-accounting invariant."""

import json
import math
import random

import pytest

from repro.analysis.invariants import InvariantChecker, InvariantViolation
from repro.apps import Application
from repro.cli import main
from repro.experiments import collect_profile
from repro.hw import Machine, MachineConfig
from repro.obs import (MetricsRegistry, TimeSeriesSampler, build_profile,
                       probe_phases, render_profiles, render_profiles_html,
                       render_timeline, render_utilization)
from repro.runtime import RunResult, run_svm
from repro.sim import (BUCKETS, TIME_TOLERANCE_US, RunningStat, Simulator,
                       TimeBuckets)
from repro.svm import PROTOCOL_LADDER, GENIMA


class TinyApp(Application):
    """Compute + one shared write + a barrier; fast under any variant."""

    name = "tiny"
    bus_intensity = 0.1

    def __init__(self, work_us: float = 4000.0):
        self.work_us = work_us

    def setup(self, backend):
        return {"r": backend.allocate("tiny.r", 16)}

    def process(self, ctx, regions):
        yield from ctx.compute(self.work_us / ctx.nprocs)
        yield from ctx.write(regions["r"], [ctx.rank % 16])
        yield from ctx.barrier()


TWO_NODES = MachineConfig(nodes=2, procs_per_node=2)


# ------------------------------------------------------------ RunningStat

def test_running_stat_merge_matches_direct_accumulation():
    rng = random.Random(7)
    xs = [rng.uniform(-50, 100) for _ in range(200)]
    for cut in (0, 1, 57, 199, 200):
        left, right = RunningStat(), RunningStat()
        left.extend(xs[:cut])
        right.extend(xs[cut:])
        direct = RunningStat()
        direct.extend(xs)
        merged = left.merge(right)
        assert merged.count == direct.count
        assert merged.total == pytest.approx(direct.total)
        assert merged.mean == pytest.approx(direct.mean)
        assert merged.variance == pytest.approx(direct.variance)
        assert merged.min == direct.min
        assert merged.max == direct.max


def test_running_stat_merge_of_empties_stays_empty():
    merged = RunningStat().merge(RunningStat())
    assert merged.count == 0
    assert merged.mean == 0.0
    # The inf/-inf sentinels must not leak into reports.
    assert repr(merged) == "RunningStat(n=0)"


def test_running_stat_merge_empty_side_copies_other():
    full = RunningStat()
    full.extend([1.0, 2.0, 3.0])
    for merged in (RunningStat().merge(full), full.merge(RunningStat())):
        assert merged.count == 3
        assert merged.min == 1.0
        assert merged.max == 3.0
        assert "inf" not in repr(merged)


# ------------------------------------------------------------ TimeBuckets

def test_time_buckets_average_of_empty_list_is_zero():
    avg = TimeBuckets.average([])
    assert avg.total == 0.0
    for name in BUCKETS:
        assert getattr(avg, name) == 0.0


# -------------------------------------------------------- MetricsRegistry

def test_registry_counter_gauge_stat_snapshot():
    class Layer:
        events = 0

    reg = MetricsRegistry()
    layer = Layer()
    reg.register_gauges("layer", layer, "events")
    layer.events += 5
    box = {"v": 10}
    reg.gauge("layer.depth", lambda: box["v"])
    s = reg.register_stat("layer.latency", RunningStat())
    s.add(2.0)
    s.add(4.0)
    reg.register_stat("layer.unused", RunningStat())
    snap = reg.snapshot()
    assert snap["layer.events"] == 5
    assert snap["layer.depth"] == 10
    assert snap["layer.latency"]["count"] == 2
    assert snap["layer.latency"]["mean"] == pytest.approx(3.0)
    assert snap["layer.unused"]["min"] is None  # never inf in JSON
    json.dumps(snap)  # everything must be serializable
    # The registry does not keep an attribute gauge's owner alive.
    del layer
    with pytest.raises(ReferenceError):
        reg.get("layer.events").read()


def test_snapshot_stat_variance_and_stdev():
    reg = MetricsRegistry()
    s = reg.register_stat("layer.lat", RunningStat())
    for x in (2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0):
        s.add(x)
    snap = reg.snapshot()["layer.lat"]
    # Sample (n-1) variance of the classic 8-value example.
    assert snap["variance"] == pytest.approx(32.0 / 7.0)
    assert snap["stdev"] == pytest.approx((32.0 / 7.0) ** 0.5)
    json.dumps(snap)


def test_snapshot_stat_variance_edge_cases():
    reg = MetricsRegistry()
    reg.register_stat("empty", RunningStat())
    one = reg.register_stat("single", RunningStat())
    one.add(42.0)
    snap = reg.snapshot()
    # Below two samples the Welford estimate is defined as 0.0 (not
    # NaN), so snapshots always serialize cleanly.
    assert snap["empty"]["variance"] == 0.0
    assert snap["empty"]["stdev"] == 0.0
    assert snap["single"]["variance"] == 0.0
    assert snap["single"]["stdev"] == 0.0
    json.dumps(snap)


def test_merged_stat_variance_matches_direct():
    left, right, direct = RunningStat(), RunningStat(), RunningStat()
    xs = [1.0, 5.0, 2.0, 8.0, 3.0, 9.0, 4.0]
    for i, x in enumerate(xs):
        (left if i % 2 else right).add(x)
        direct.add(x)
    merged = left.merge(right)
    assert merged.variance == pytest.approx(direct.variance)
    assert merged.stdev == pytest.approx(direct.stdev)


def test_register_gauges_binds_attributes_and_rejects_typos():
    class Layer:
        hits = 3

    reg = MetricsRegistry()
    layer = Layer()
    reg.register_gauges("layer", layer, "hits")
    layer.hits = 9
    assert reg.snapshot()["layer.hits"] == 9
    with pytest.raises(AttributeError):
        reg.register_gauges("layer", layer, "typo")


def test_registry_rebinding_last_instance_wins():
    reg = MetricsRegistry()
    reg.gauge("svm.x", lambda: 1)
    reg.gauge("svm.x", lambda: 2)
    assert len(reg) == 1
    assert reg.snapshot()["svm.x"] == 2


def test_deferred_registration_runs_on_first_query():
    reg = MetricsRegistry()
    calls = []

    def register(r):
        calls.append(True)
        r.gauge("lazy.count", lambda: 3)

    reg.defer(register)
    assert calls == []                  # nothing ran yet
    assert "lazy.count" in reg          # first query materializes
    assert calls == [True]
    assert reg.snapshot()["lazy.count"] == 3
    assert calls == [True]              # thunk ran exactly once


def test_deferred_registration_supports_nested_defers():
    reg = MetricsRegistry()

    def inner(r):
        r.gauge("b", lambda: 2)

    def outer(r):
        r.gauge("a", lambda: 1)
        r.defer(inner)

    reg.defer(outer)
    snap = reg.snapshot()
    assert snap == {"a": 1, "b": 2}


def test_register_stat_binds_existing_accumulator_without_reset():
    reg = MetricsRegistry()
    stat = RunningStat()
    stat.add(5.0)
    bound = reg.register_stat("layer.lat", stat)
    assert bound is stat
    assert reg.snapshot()["layer.lat"]["count"] == 1
    stat.add(7.0)
    assert reg.snapshot()["layer.lat"]["mean"] == pytest.approx(6.0)


def test_machine_layers_register_into_the_registry():
    machine = Machine(TWO_NODES)
    names = machine.metrics.names()
    for expected in ("nic.0.packets_sent", "nic.1.delivery_latency_us",
                     "node.0.interrupts_taken", "node.1.proto_busy_us"):
        assert expected in names


def test_protocol_and_vmmc_metrics_registered():
    from repro.runtime.backends import SVMBackend
    backend = SVMBackend(TWO_NODES, GENIMA)
    names = backend.machine.metrics.names()
    for expected in ("svm.page_fetches", "svm.interrupts",
                     "vmmc.messages_sent", "vmmc.bytes_sent"):
        assert expected in names


# ------------------------------------------------------------ slice hooks

def test_slice_hook_fires_at_boundaries_without_extending_run():
    sim = Simulator()
    seen = []

    def proc():
        yield sim.timeout(2500.0)

    sim.process(proc())
    sim.add_slice_hook(1000.0, seen.append)
    end = sim.run()
    # Boundaries up to the last event only: the hook must not keep the
    # simulation alive past its processes.
    assert seen == [1000.0, 2000.0]
    assert end == 2500.0


def test_slice_hook_removal_and_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.add_slice_hook(0.0, lambda t: None)
    seen = []
    hook = sim.add_slice_hook(10.0, seen.append)
    sim.remove_slice_hook(hook)

    def proc():
        yield sim.timeout(100.0)

    sim.process(proc())
    sim.run()
    assert seen == []


# ---------------------------------------------------------- phase profiles

def _profile(slice_us: float = 500.0):
    return collect_profile(TinyApp(), GENIMA, config=TWO_NODES,
                           slice_us=slice_us)


def _assert_slices_cover_final_buckets(profile):
    for rank in range(profile.nprocs):
        for name in BUCKETS:
            sliced = sum(s["ranks"][rank][name] for s in profile.slices)
            # Slices also cover the untimed init section, whose charges
            # are discarded at the timed-section reset; the timed-run
            # buckets can only be <= the all-run slice sum.
            assert sliced >= profile.buckets[rank][name] - 1e-6


def test_profiler_slice_deltas_sum_to_final_buckets():
    profile = _profile()
    assert profile.slices, "run long enough for at least one slice"
    _assert_slices_cover_final_buckets(profile)


def test_profile_longer_than_max_samples_merges_slices():
    """Decimation merges adjacent phase rows instead of dropping them:
    a profile with more slices than ``max_samples`` keeps contiguous
    slices whose deltas sum to the undecimated profile's."""
    full = _profile(slice_us=20.0)
    sampler = TimeSeriesSampler(cadence_us=20.0, max_samples=8)
    probe_phases(sampler)
    result = run_svm(TinyApp(), GENIMA, config=TWO_NODES,
                     telemetry=sampler)
    merged = build_profile(sampler, result)
    assert len(full.slices) > 8 > len(merged.slices) > 1
    assert merged.slices[0]["t0"] == full.slices[0]["t0"]
    assert merged.slices[-1]["t1"] == full.slices[-1]["t1"]
    for prev, cur in zip(merged.slices, merged.slices[1:]):
        assert cur["t0"] == prev["t1"]
    for rank in range(merged.nprocs):
        for name in BUCKETS:
            total = sum(s["ranks"][rank][name] for s in merged.slices)
            assert total == pytest.approx(
                sum(s["ranks"][rank][name] for s in full.slices),
                abs=1e-6)
    _assert_slices_cover_final_buckets(merged)
    assert merged.utilization == full.utilization


def test_profiler_utilization_fractions_bounded():
    profile = _profile()
    for util in profile.utilization + [u for s in profile.slices
                                       for u in s["utilization"]]:
        for value in util.values():
            assert -1e-9 <= value <= 1.0 + 1e-9


def test_profiler_rejects_non_positive_slice(monkeypatch):
    # Rejected when the sampler is built, before anything simulates.
    monkeypatch.setattr(Simulator, "run",
                        lambda *a, **k: pytest.fail("simulation ran"))
    for width in (0.0, -1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite and positive"):
            _profile(slice_us=width)


def test_profiling_does_not_change_the_run():
    bare = run_svm(TinyApp(), GENIMA, config=TWO_NODES)
    sampler = TimeSeriesSampler(cadence_us=250.0)
    probe_phases(sampler)
    profiled = run_svm(TinyApp(), GENIMA, config=TWO_NODES,
                       telemetry=sampler)
    assert profiled.time_us == bare.time_us
    assert profiled.wall_us == bare.wall_us


def test_sampler_window_spans_attach_to_finalize():
    sampler = TimeSeriesSampler(cadence_us=250.0)
    assert sampler.window_us == (0.0, 0.0)     # not attached yet
    probe_phases(sampler)
    result = run_svm(TinyApp(), GENIMA, config=TWO_NODES,
                     telemetry=sampler)
    t0, t1 = sampler.window_us
    assert 0.0 <= t0 < t1
    assert abs(t1 - sampler.sim.now) <= TIME_TOLERANCE_US
    summary = sampler.summary()
    assert (summary["t0_us"], summary["t1_us"]) == (t0, t1)
    # The profile's window utilisation divides by the same span.
    profile = build_profile(sampler, result)
    busy = sampler.timeline_change("busy.lanai")
    assert profile.utilization[0]["lanai"] == busy[0] / (t1 - t0)


# ------------------------------------------------- sum-equals-wall invariant

@pytest.mark.parametrize("features", PROTOCOL_LADDER,
                         ids=[f.name for f in PROTOCOL_LADDER])
def test_sum_equals_wall_across_the_ladder(features):
    result = run_svm(TinyApp(), features, config=TWO_NODES, check=True)
    assert result.wall_us
    assert len(result.residual_us) == len(result.wall_us)
    assert all(abs(r) <= TIME_TOLERANCE_US for r in result.residual_us)
    for wall, buckets in zip(result.wall_us, result.buckets):
        assert buckets.total == pytest.approx(wall, abs=TIME_TOLERANCE_US)


def test_run_result_residual_us_flags_violations():
    b = TimeBuckets()
    b.charge("compute", 80.0)
    result = RunResult(app="x", system="y", nprocs=1, time_us=100.0,
                       wall_us=[100.0], buckets=[b])
    assert result.residual_us == [pytest.approx(-20.0)]
    # Results without per-rank wall times trivially pass.
    assert RunResult(app="x", system="y", nprocs=1,
                     time_us=1.0).residual_us == []


def test_invariant_checker_on_run_complete_raises():
    backend = __import__("repro.runtime.backends",
                         fromlist=["SVMBackend"]).SVMBackend(
        MachineConfig(nodes=2, procs_per_node=2), GENIMA)
    checker = InvariantChecker(backend.protocol).install()
    good = TimeBuckets()
    good.charge("compute", 10.0)
    bad = TimeBuckets()
    bad.charge("compute", 9.0)
    checker.on_run_complete(RunResult(
        app="x", system="y", nprocs=1, time_us=10.0, wall_us=[10.0],
        buckets=[good]))
    # Results without per-rank wall times trivially pass.
    checker.on_run_complete(RunResult(app="x", system="y", nprocs=1,
                                      time_us=1.0))
    with pytest.raises(InvariantViolation, match="time accounting"):
        checker.on_run_complete(RunResult(
            app="x", system="y", nprocs=2, time_us=10.0,
            wall_us=[10.0, 10.0], buckets=[good, bad]))


def test_traced_profiled_run_leaves_prof_records_and_sanitizes_clean():
    from repro.analysis.sanitizer import Sanitizer
    from repro.sim import Tracer
    tracer = Tracer()
    sampler = TimeSeriesSampler(cadence_us=500.0)
    probe_phases(sampler)
    result = run_svm(TinyApp(), GENIMA, config=TWO_NODES, tracer=tracer,
                     telemetry=sampler)
    assert not any(e.category == "prof.rank" for e in tracer.events)
    build_profile(sampler, result)
    prof_events = [e for e in tracer.events if e.category == "prof.rank"]
    assert len(prof_events) == 4  # one per rank
    findings = Sanitizer(["time-accounting"]).run(tracer.events)
    assert findings == []


def test_sanitizer_time_accounting_flags_bad_records():
    from repro.analysis.sanitizer import Sanitizer
    from repro.sim.trace import TraceEvent
    bad = TraceEvent(t=1.0, category="prof.rank", seq=1,
                     fields={"rank": 2, "wall_us": 100.0,
                             "bucket_us": 90.0, "residual_us": -10.0})
    findings = Sanitizer(["time-accounting"]).run([bad])
    assert len(findings) == 1
    assert "rank 2" in findings[0].message


def test_untraced_runs_leave_no_prof_records():
    from repro.sim import Tracer
    tracer = Tracer()
    run_svm(TinyApp(), GENIMA, config=TWO_NODES, tracer=tracer)
    assert not any(e.category == "prof.rank" for e in tracer.events)


# ------------------------------------------------------------------ reports

def test_render_profiles_and_timeline_and_utilization():
    profile = _profile()
    text = render_profiles([profile])
    assert "GeNIMA" in text and "accounting" in text and "ok" in text
    strip = render_timeline(profile)
    assert f"rank {profile.nprocs - 1:3d}" in strip
    table = render_utilization(profile)
    assert "lanai" in table
    html = render_profiles_html([profile])
    assert html.startswith("<!doctype html>") and "GeNIMA" in html


def test_profile_json_round_trip():
    profile = _profile()
    data = json.loads(profile.to_json())
    assert data["schema"] == 1
    assert data["invariant"]["ok"] is True
    assert len(data["ranks"]) == profile.nprocs
    for rank in data["ranks"]:
        total = sum(rank["buckets"].values())
        assert abs(total - rank["wall_us"]) <= TIME_TOLERANCE_US
    assert "svm.page_fetches" in data["metrics"]


# ---------------------------------------------------------------------- CLI

def test_cli_profile_writes_json_and_reports(tmp_path, capsys):
    out = tmp_path / "profile.json"
    html = tmp_path / "profile.html"
    rc = main(["profile", "--app", "fft", "--variant", "genima",
               "--nodes", "2", "--slice-us", "2000",
               "--out", str(out), "--html", str(html)])
    assert rc == 0
    captured = capsys.readouterr().out
    assert "execution-time breakdown" in captured
    assert "phase timeline" in captured
    data = json.loads(out.read_text())
    assert data["schema"] == 1
    for profile in data["profiles"]:
        assert profile["invariant"]["ok"]
        for rank in profile["ranks"]:
            total = sum(rank["buckets"].values())
            assert abs(total - rank["wall_us"]) <= 1e-6
    assert html.read_text().startswith("<!doctype html>")


def test_cli_profile_rejects_unknown_names():
    with pytest.raises(SystemExit):
        main(["profile", "--app", "nosuchapp"])
