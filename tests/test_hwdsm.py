"""Tests for the hardware-DSM yardstick backend."""

import pytest

from repro.hwdsm import HWDSMBackend, HWDSMConfig
from repro.runtime import run_hwdsm, run_sequential, speedup
from repro.apps import Ocean
from tests.test_runtime import TinyApp


def test_config_derived_lines_per_page():
    cfg = HWDSMConfig()
    assert cfg.lines_per_page == 32


@pytest.mark.parametrize("field,value", [
    ("cache_line", 0), ("miss_overlap", 0), ("miss_overlap", float("nan")),
    ("nprocs", 0), ("nprocs", 2.5), ("procs_per_node", True),
    ("page_size", 0), ("line_miss_us", float("nan")),
    ("lock_op_us", -1.0), ("barrier_op_us", float("inf")),
    ("bus_contention_factor", -0.1), ("reread_miss_fraction", 1.5),
    ("reread_miss_fraction", float("nan"))])
def test_config_rejects_bad_values(field, value):
    # Construct only: cache_line=0 and miss_overlap=0 used to raise
    # ZeroDivisionError at the first miss; the rest constructed.
    with pytest.raises(ValueError, match=field):
        HWDSMConfig(**{field: value})


def test_cold_read_costs_lines_reread_costs_fraction():
    backend = HWDSMBackend()
    region = backend.allocate("x", 4)
    cfg = backend.config
    cold = backend._miss_cost(0, region, [0])
    assert cold == pytest.approx(
        cfg.lines_per_page * cfg.line_miss_us / cfg.miss_overlap)
    # re-read of unchanged page: free
    assert backend._miss_cost(0, region, [0]) == 0.0
    # after a remote write, a fraction of the lines miss again
    backend.op_write(1, region, [0], 1, None)
    reread = backend._miss_cost(0, region, [0])
    assert 0 < reread < cold


def test_writer_keeps_own_copy_current():
    backend = HWDSMBackend()
    region = backend.allocate("x", 4)
    list(backend.op_write(0, region, [1], 1, None))
    assert backend._miss_cost(0, region, [1]) == 0.0


def test_locks_enforce_mutual_exclusion():
    backend = HWDSMBackend()
    sim = backend.sim
    inside = [0]
    worst = [0]

    def proc(rank):
        yield from backend.op_lock(rank, 3)
        inside[0] += 1
        worst[0] = max(worst[0], inside[0])
        yield sim.timeout(10.0)
        inside[0] -= 1
        yield from backend.op_unlock(rank, 3)

    for r in range(8):
        sim.process(proc(r))
    sim.run()
    assert worst[0] == 1


def test_barrier_releases_all_at_once():
    backend = HWDSMBackend(HWDSMConfig(nprocs=4))
    sim = backend.sim
    times = []

    def proc(rank):
        yield sim.timeout(10.0 * rank)
        yield from backend.op_barrier(rank)
        times.append(sim.now)

    for r in range(4):
        sim.process(proc(r))
    sim.run()
    assert max(times) - min(times) < 1e-9
    assert min(times) >= 30.0


def test_flags_block_until_release():
    backend = HWDSMBackend()
    sim = backend.sim
    order = []

    def consumer():
        yield from backend.op_acquire_flag(0, 9)
        order.append(("consumed", sim.now))

    def producer():
        yield sim.timeout(50.0)
        yield from backend.op_release_flag(1, 9)
        order.append(("produced", sim.now))

    sim.process(consumer())
    sim.process(producer())
    sim.run()
    assert order[0][0] == "produced"
    assert order[1][1] >= 50.0


def test_duplicate_region_rejected():
    backend = HWDSMBackend()
    backend.allocate("x", 4)
    with pytest.raises(ValueError):
        backend.allocate("x", 4)


def test_hwdsm_speedups_are_near_linear_for_regular_apps():
    seq = run_sequential(TinyApp(work_us=5000.0))
    hw = run_hwdsm(TinyApp(work_us=5000.0))
    assert speedup(seq, hw) > 12.0


def test_hwdsm_far_outperforms_nothing_but_stays_sublinear():
    seq = run_sequential(Ocean(n=130, sweeps=4))
    hw = run_hwdsm(Ocean(n=130, sweeps=4))
    s = speedup(seq, hw)
    assert 4.0 < s <= 16.0
