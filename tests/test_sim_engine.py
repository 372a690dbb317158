"""Unit tests for the discrete-event kernel."""

import gc

import pytest

from repro.sim import (
    Interrupt,
    SimulationError,
    Simulator,
)


def test_timeout_advances_clock():
    sim = Simulator()
    fired = []

    def proc():
        yield sim.timeout(5.0)
        fired.append(sim.now)
        yield sim.timeout(2.5)
        fired.append(sim.now)

    sim.process(proc())
    sim.run()
    assert fired == [5.0, 7.5]


def test_timeout_value_passthrough():
    sim = Simulator()
    got = []

    def proc():
        v = yield sim.timeout(1.0, value="hello")
        got.append(v)

    sim.process(proc())
    sim.run()
    assert got == ["hello"]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1.0)


@pytest.mark.parametrize("delay", [float("nan"), float("inf")],
                         ids=["nan", "inf"])
def test_non_finite_delay_rejected(delay):
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(delay)
    # Nothing reached the heap: a NaN key would corrupt its order.
    assert sim.peek() == float("inf")
    assert sim.run() == 0.0


@pytest.mark.parametrize("until", [float("nan"), float("inf")],
                         ids=["nan", "inf"])
def test_run_until_non_finite_rejected(until):
    sim = Simulator()
    sim.schedule(5.0, lambda: None)
    with pytest.raises(ValueError):
        sim.run(until=until)
    assert sim.now == 0.0  # repro: noqa[float-time-eq] — nothing ran
    assert sim.run() == 5.0


def test_same_time_events_fire_in_schedule_order():
    sim = Simulator()
    order = []

    for i in range(5):
        sim.schedule(10.0, lambda i=i: order.append(i))
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_event_succeed_wakes_waiter_with_value():
    sim = Simulator()
    ev = sim.event()
    got = []

    def waiter():
        v = yield ev
        got.append((sim.now, v))

    sim.process(waiter())
    sim.schedule(3.0, lambda: ev.succeed(42))
    sim.run()
    assert got == [(3.0, 42)]


def test_event_triggered_twice_raises():
    sim = Simulator()
    ev = sim.event()
    ev.succeed()
    with pytest.raises(SimulationError):
        ev.succeed()


def test_yield_already_triggered_event_resumes_immediately():
    sim = Simulator()
    ev = sim.event()
    ev.succeed("pre")
    got = []

    def proc():
        yield sim.timeout(1.0)
        v = yield ev
        got.append((sim.now, v))

    sim.process(proc())
    sim.run()
    assert got == [(1.0, "pre")]


def test_many_yields_of_dispatched_event_do_not_recurse():
    """Each yield of an already-dispatched event resumes the process at
    once; 5,000 in a row must loop, not grow the Python stack."""
    sim = Simulator()
    ev = sim.event()
    ev.succeed(3)
    got = []

    def proc():
        yield sim.timeout(1.0)
        total = 0
        for _ in range(5000):
            total += yield ev
        got.append((sim.now, total))

    sim.process(proc())
    sim.run()
    assert got == [(1.0, 15000)]


def test_event_fail_raises_in_waiter():
    sim = Simulator()
    ev = sim.event()
    caught = []

    def waiter():
        try:
            yield ev
        except RuntimeError as err:
            caught.append(str(err))

    sim.process(waiter())
    sim.schedule(1.0, lambda: ev.fail(RuntimeError("boom")))
    sim.run()
    assert caught == ["boom"]


def test_process_return_value_delivered_to_parent():
    sim = Simulator()
    got = []

    def child():
        yield sim.timeout(4.0)
        return 99

    def parent():
        v = yield sim.process(child())
        got.append((sim.now, v))

    sim.process(parent())
    sim.run()
    assert got == [(4.0, 99)]


def test_uncaught_process_exception_propagates_from_run():
    sim = Simulator()

    def bad():
        yield sim.timeout(1.0)
        raise ValueError("crash")

    sim.process(bad())
    with pytest.raises(ValueError, match="crash"):
        sim.run()


def test_yielding_non_event_is_an_error():
    sim = Simulator()

    def bad():
        yield 123

    sim.process(bad())
    with pytest.raises(SimulationError):
        sim.run()


def test_run_until_stops_clock_at_bound():
    sim = Simulator()
    fired = []

    def proc():
        yield sim.timeout(100.0)
        fired.append(True)

    sim.process(proc())
    end = sim.run(until=10.0)
    assert end == 10.0
    assert not fired
    sim.run()
    assert fired == [True]


def test_all_of_waits_for_every_event():
    sim = Simulator()
    evs = [sim.event() for _ in range(3)]
    got = []

    def waiter():
        vals = yield sim.all_of(evs)
        got.append((sim.now, vals))

    sim.process(waiter())
    sim.schedule(1.0, lambda: evs[1].succeed("b"))
    sim.schedule(2.0, lambda: evs[0].succeed("a"))
    sim.schedule(5.0, lambda: evs[2].succeed("c"))
    sim.run()
    assert got == [(5.0, ["b", "a", "c"])] or got == [(5.0, ["a", "b", "c"])]


def test_all_of_empty_fires_immediately():
    sim = Simulator()
    got = []

    def waiter():
        vals = yield sim.all_of([])
        got.append(vals)

    sim.process(waiter())
    sim.run()
    assert got == [[]]


def test_any_of_fires_on_first():
    sim = Simulator()
    evs = [sim.event() for _ in range(3)]
    got = []

    def waiter():
        v = yield sim.any_of(evs)
        got.append((sim.now, v))

    sim.process(waiter())
    sim.schedule(2.0, lambda: evs[2].succeed("late"))
    sim.schedule(1.0, lambda: evs[0].succeed("first"))
    sim.run()
    assert got == [(1.0, "first")]


def test_interrupt_raises_in_waiting_process():
    sim = Simulator()
    log = []

    def victim():
        try:
            yield sim.timeout(100.0)
            log.append("finished")
        except Interrupt as intr:
            log.append(("interrupted", sim.now, intr.cause))

    proc = sim.process(victim())
    sim.schedule(5.0, lambda: proc.interrupt("stop"))
    sim.run()
    assert log == [("interrupted", 5.0, "stop")]


def test_close_stops_a_parked_process_for_good():
    sim = Simulator()
    ev = sim.event()
    log = []

    def daemon():
        try:
            yield ev
            log.append("resumed")
        finally:
            log.append("closed")

    proc = sim.process(daemon())
    sim.run()
    proc.close()
    assert log == ["closed"]
    ev.succeed()
    sim.run()  # the detached wait resumes nothing
    assert log == ["closed"]


def test_interrupt_finished_process_is_error():
    sim = Simulator()

    def quick():
        yield sim.timeout(1.0)

    proc = sim.process(quick())
    sim.run()
    with pytest.raises(SimulationError):
        proc.interrupt()


def test_process_is_alive_tracks_lifetime():
    sim = Simulator()

    def quick():
        yield sim.timeout(3.0)

    proc = sim.process(quick())
    assert proc.is_alive
    sim.run()
    assert not proc.is_alive


def test_peek_reports_next_event_time():
    sim = Simulator()
    sim.schedule(7.0, lambda: None)
    assert sim.peek() == 7.0
    sim.run()
    assert sim.peek() == float("inf")


def test_nested_process_chains():
    sim = Simulator()
    trace = []

    def leaf(tag, delay):
        yield sim.timeout(delay)
        trace.append(tag)
        return tag

    def mid():
        a = yield sim.process(leaf("a", 1.0))
        b = yield sim.process(leaf("b", 2.0))
        return a + b

    def root():
        v = yield sim.process(mid())
        trace.append(v)

    sim.process(root())
    sim.run()
    assert trace == ["a", "b", "ab"]


def test_event_value_before_trigger_raises():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(SimulationError):
        _ = ev.value


def test_callback_added_after_dispatch_runs_immediately():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(7)
    sim.run()
    got = []
    ev.add_callback(lambda e: got.append(e.value))
    assert got == [7]


# -- horizon-bounded slice hooks (run(until=...) tail fix) ----------------


def test_slice_hooks_fire_up_to_until_after_last_event():
    """Boundaries between the final event and ``until`` must fire."""
    sim = Simulator()
    seen = []
    sim.add_slice_hook(10.0, seen.append)

    def proc():
        yield sim.timeout(15.0)

    sim.process(proc())
    end = sim.run(until=45.0)
    assert end == 45.0
    # 10 fires before the event at 15; 20/30/40 are tail boundaries.
    assert seen == [10.0, 20.0, 30.0, 40.0]


def test_slice_hook_boundary_exactly_at_until_fires_once():
    sim = Simulator()
    seen = []
    sim.add_slice_hook(10.0, seen.append)
    sim.run(until=20.0)
    assert seen == [10.0, 20.0]
    # Resuming past the horizon does not re-fire the boundary at 20.
    def proc():
        yield sim.timeout(15.0)  # fires at t=35

    sim.process(proc())
    sim.run()
    assert seen == [10.0, 20.0, 30.0]


def test_slice_hooks_fire_on_empty_bounded_run():
    """Even a drained simulation reports every window up to the horizon."""
    sim = Simulator()
    seen = []
    sim.add_slice_hook(5.0, seen.append)
    end = sim.run(until=12.0)
    assert end == 12.0
    assert seen == [5.0, 10.0]


@pytest.mark.parametrize("width", [0.0, -1.0, float("nan"), float("inf"),
                                   float("-inf")],
                         ids=["zero", "negative", "nan", "inf", "-inf"])
def test_slice_hook_width_must_be_finite_and_positive(width):
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.add_slice_hook(width, lambda t: None)
    assert sim._slice_hooks == []


# -- interrupt of a triggered-but-undispatched wait target ----------------


def test_interrupt_when_wait_target_triggered_but_undispatched():
    sim = Simulator()
    outcome = []

    def waiter():
        ev = sim.event()
        holder.append(ev)
        try:
            val = yield ev
            outcome.append(("value", val))
        except Interrupt as intr:
            outcome.append(("interrupt", intr.cause))

    holder = []
    p = sim.process(waiter())
    sim.run()
    ev = holder[0]
    # Trigger the target, then interrupt before the kernel dispatches it.
    ev.succeed("late")
    p.interrupt("stop")
    sim.run()
    # The interrupt wins; the event's (detached) dispatch must not
    # resume the process a second time.
    assert outcome == [("interrupt", "stop")]


# -- combination-event callback detach ------------------------------------


def test_any_of_detaches_callbacks_from_losers():
    sim = Simulator()
    long_lived = sim.event()

    def retry_loop():
        for i in range(50):
            yield sim.any_of([long_lived, sim.timeout(1.0)])

    sim.process(retry_loop())
    sim.run()
    # Without detach the loser accumulates one dead closure per lap.
    assert len(long_lived._callbacks) == 0


def test_all_of_detaches_callbacks_on_failure():
    sim = Simulator()
    pending = sim.event()

    def proc():
        failing = sim.event()
        combined = sim.all_of([pending, failing])
        failing.fail(RuntimeError("boom"))
        try:
            yield combined
        except RuntimeError:
            pass

    sim.process(proc())
    sim.run()
    assert len(pending._callbacks) == 0


def test_all_of_failure_does_not_read_failed_value():
    sim = Simulator()

    def proc():
        failing = sim.event()
        other = sim.event()
        combined = sim.all_of([failing, other])
        failing.fail(ValueError("nope"))
        with pytest.raises(ValueError):
            yield combined

    sim.process(proc())
    sim.run()


def test_any_of_still_delivers_winner_value():
    sim = Simulator()
    got = []

    def proc():
        a, b = sim.event(), sim.event()
        sim.schedule(2.0, lambda: a.succeed("A"))
        sim.schedule(1.0, lambda: b.succeed("B"))
        val = yield sim.any_of([a, b])
        got.append((sim.now, val))
        assert len(a._callbacks) == 0  # loser detached

    sim.process(proc())
    sim.run()
    assert got == [(1.0, "B")]


def test_combinations_leave_no_cyclic_garbage():
    """any_of/all_of callbacks hold no reference back to themselves, so
    a finished combination is freed by reference counting: with the
    cyclic collector off, nothing is left for it to find."""
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        sim = Simulator()
        long_lived = sim.event()
        joined = []

        def retry_loop():
            for _ in range(1000):
                yield sim.any_of([long_lived, sim.timeout(1.0)])
            joined.append((yield sim.all_of([sim.timeout(1.0),
                                             sim.timeout(2.0, "b")])))

        sim.process(retry_loop())
        # A failure that is never raised carries no traceback, so the
        # failed event keeps no frame alive.
        pending, failing = sim.event(), sim.event()
        failed = []
        sim.all_of([pending, failing]).add_callback(
            lambda ev: failed.append(type(ev._exc)))
        sim.schedule(0.5, lambda: failing.fail(RuntimeError("boom")))
        sim.run()
        assert joined == [[None, "b"]]
        assert failed == [RuntimeError]
        assert len(pending._callbacks) == 0
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()


def test_events_dispatched_counter_accumulates():
    sim = Simulator()

    def proc():
        yield sim.timeout(1.0)
        yield sim.timeout(1.0)

    sim.process(proc())
    sim.run()
    first = sim.events_dispatched
    assert first > 0
    sim.process(proc())
    sim.run()
    assert sim.events_dispatched > first


def test_one_instant_from_different_delays_fires_in_scheduling_order():
    """Entries due at one future instant, scheduled at different times
    with different delays, dispatch in scheduling order; the zero-delay
    events they trigger run after the whole batch; slice hooks fire
    before the batch and ``run(until=)`` stops after it."""
    sim = Simulator()
    order = []
    sim.add_slice_hook(10.0, lambda t: order.append(f"hook{t:g}"))

    def fire(tag):
        order.append(tag)
        sim.schedule(0.0, lambda: order.append(f"then-{tag}"))

    def scheduler():
        for start in (0.0, 2.5, 5.0, 7.5):
            # Decoys just before and after t=10 stir the heap.
            sim.schedule(10.5 - start,
                         lambda s=start: order.append(f"late{s:g}"))
            sim.schedule(10.0 - start, lambda s=start: fire(f"b{s:g}"))
            sim.schedule(9.5 - start,
                         lambda s=start: order.append(f"early{s:g}"))
            yield sim.timeout(2.5)

    sim.process(scheduler())
    assert sim.run(until=10.0) == pytest.approx(10.0)
    assert order == ["early0", "early2.5", "early5", "early7.5", "hook10",
                     "b0", "b2.5", "b5", "b7.5",
                     "then-b0", "then-b2.5", "then-b5", "then-b7.5"]
    assert sim.peek() == pytest.approx(10.5)
    del order[:]
    sim.run()
    assert order == ["late0", "late2.5", "late5", "late7.5"]


def test_run_with_horizon_in_the_past_dispatches_nothing():
    sim = Simulator()
    sim.schedule(10.0, lambda: None)
    sim.run()
    fired = []
    sim.event().succeed().add_callback(fired.append)
    assert sim.run(until=5.0) == pytest.approx(10.0)
    assert fired == [] and sim.events_dispatched == 1
    sim.run()
    assert len(fired) == 1
