"""Discrete-event simulation kernel.

A tiny, deterministic, generator-based discrete-event engine in the
style of SimPy, sized for this project.  Simulated *processes* are
Python generators that ``yield`` :class:`Event` objects; the kernel
resumes a process when the event it is waiting on fires, passing the
event's value back through ``send``.

Time is a ``float``; this project uses microseconds throughout.

Determinism: events scheduled for the same instant fire in scheduling
order, so a simulation with the same inputs always produces the same
trace.  The scheduler preserves the historical ``(when, seq)`` total
order — time-ascending, scheduling-order within an instant — but keeps
it *structurally* instead of comparing tuples in one global heap:

* events triggered at the **current instant** (the overwhelmingly
  common case: every ``succeed``/``fail``, every queue hand-off) go to
  a FIFO lane and never touch a heap;
* future events land on a **calendar page** — one append-ordered list
  per distinct timestamp — so an N-event same-time batch costs one
  dict probe per event instead of N ``heappush``es;
* page *keys* (the distinct pending timestamps) sit in a small min-heap
  fallback, the only comparison-based structure left; far-future events
  (watchdog timeouts, retransmit backoffs) cost one heap entry per
  distinct deadline no matter how many events share it.

Appending to a page preserves scheduling order because scheduling calls
happen in dispatch order; draining pages in heap order preserves time
order.  The determinism regression tests pin that this refactor is
byte-identical to the old single-heap loop.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Generator, List, Optional

__all__ = [
    "Event",
    "Timeout",
    "Process",
    "Simulator",
    "Interrupt",
    "SimulationError",
]


class SimulationError(Exception):
    """Raised for kernel misuse (e.g. triggering an event twice)."""


class Interrupt(Exception):
    """Thrown into a process that is interrupted while waiting.

    The ``cause`` attribute carries the value passed to
    :meth:`Process.interrupt`.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence that processes can wait on.

    An event starts *pending*; calling :meth:`succeed` (or
    :meth:`fail`) *triggers* it, after which its callbacks run at the
    current simulation instant.  Yielding an already-triggered event
    resumes the process immediately (at the same instant).
    """

    __slots__ = ("sim", "_value", "_exc", "_triggered", "_callbacks")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self._value: Any = None
        self._exc: Optional[BaseException] = None
        self._triggered = False
        self._callbacks: List[Callable[["Event"], None]] = []

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def ok(self) -> bool:
        """True if the event triggered successfully."""
        return self._triggered and self._exc is None

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimulationError("event value read before trigger")
        if self._exc is not None:
            raise self._exc
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event, delivering ``value`` to waiters."""
        if self._triggered:
            raise SimulationError("event triggered twice")
        self._triggered = True
        self._value = value
        self.sim._push_triggered(self)
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event with an exception to raise in waiters."""
        if self._triggered:
            raise SimulationError("event triggered twice")
        self._triggered = True
        self._exc = exc
        self.sim._push_triggered(self)
        return self

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        if self._triggered and self._callbacks is _CONSUMED:
            # Already dispatched: run at once (same sim instant).
            fn(self)
        else:
            self._callbacks.append(fn)

    def _dispatch(self) -> None:
        callbacks, self._callbacks = self._callbacks, _CONSUMED
        for fn in callbacks:
            fn(self)


class _Consumed(list):
    """Sentinel callback list for dispatched events (append = run now)."""

    def append(self, fn):  # type: ignore[override]
        raise SimulationError("internal: append to consumed callback list")


_CONSUMED = _Consumed()


class Timeout(Event):
    """An event that fires ``delay`` time units after creation."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        # Flattened Event.__init__ + scheduling: one Timeout per station
        # hold makes this constructor a hot-path allocation, so it pays
        # to skip the super() call and the ``now`` property.
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        self.sim = sim
        self._value = value
        self._exc = None
        self._triggered = True
        self._callbacks = []
        sim._schedule_at(sim._now + delay, self)


class Process(Event):
    """A running simulated process; also an event that fires on return.

    The wrapped generator yields :class:`Event` instances.  When the
    generator returns, the process event succeeds with the generator's
    return value; an uncaught exception fails the process event (and
    propagates at :meth:`Simulator.run` time if nobody waits on it).
    """

    __slots__ = ("_gen", "_send", "_throw", "_waiting_on", "name")

    def __init__(self, sim: "Simulator", gen: Generator, name: str = ""):
        super().__init__(sim)
        self._gen = gen
        # Bound-method caches: every resume costs one of these lookups.
        self._send = gen.send
        self._throw = gen.throw
        self._waiting_on: Optional[Event] = None
        self.name = name or getattr(gen, "__name__", "process")
        # Kick off at the current instant.
        boot = Event(sim)
        boot.add_callback(self._resume)
        boot.succeed()

    @property
    def is_alive(self) -> bool:
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at this instant."""
        if self._triggered:
            raise SimulationError("cannot interrupt a finished process")
        target = self._waiting_on
        if target is not None:
            # Detach: the interrupted wait no longer resumes us.
            try:
                target._callbacks.remove(self._resume)
            except (ValueError, SimulationError):
                pass
        self._waiting_on = None
        kick = Event(self.sim)
        kick.add_callback(lambda _ev: self._step(Interrupt(cause)))
        kick.succeed()

    # -- kernel internals ------------------------------------------------

    def _resume(self, ev: Event) -> None:
        self._waiting_on = None
        if ev._exc is not None:
            self._step(ev._exc)
        else:
            self._step(None, ev._value)

    def _step(self, exc: Optional[BaseException], value: Any = None) -> None:
        try:
            if exc is not None:
                target = self._throw(exc)
            else:
                target = self._send(value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as err:  # noqa: BLE001 - process crashed
            self.fail(err)
            self.sim._note_crash(self, err)
            return
        if not isinstance(target, Event):
            self._gen.close()
            err = SimulationError(
                f"process {self.name!r} yielded {target!r}, not an Event"
            )
            self.fail(err)
            self.sim._note_crash(self, err)
            return
        self._waiting_on = target
        target.add_callback(self._resume)


def _detach(events, cbs) -> None:
    """Remove combination callbacks from still-pending input events.

    Triggered inputs are skipped: their callback list is either about
    to be consumed (harmlessly running the now-inert callback) or has
    already been consumed and must not be touched.
    """
    for ev, cb in zip(events, cbs):
        if not ev._triggered:
            try:
                ev._callbacks.remove(cb)
            except ValueError:
                pass


class _SliceHook:
    """One registered time-slice observer (see ``add_slice_hook``)."""

    __slots__ = ("width", "fn", "next_at")

    def __init__(self, width: float, fn: Callable[[float], None],
                 next_at: float):
        self.width = width
        self.fn = fn
        self.next_at = next_at


class Simulator:
    """The event loop: a time-ordered queue of triggered events.

    Storage is a three-lane calendar (see the module docstring):
    ``_fifo`` holds events due at the current instant in scheduling
    order, ``_pages`` maps each distinct future timestamp to its
    append-ordered event list, and ``_times`` is the min-heap fallback
    holding one entry per pending page.  ``events_dispatched`` counts
    every dispatched event; the ns/event figures in BENCH_grid.json
    divide wall time by it.
    """

    def __init__(self):
        self._now = 0.0
        self._fifo: deque = deque()
        self._pages: dict = {}
        self._times: List[float] = []
        self._crashed: List = []
        self._slice_hooks: List[_SliceHook] = []
        self.events_dispatched = 0

    # -- time-slice hooks ---------------------------------------------------

    def add_slice_hook(self, width: float,
                       fn: Callable[[float], None]) -> _SliceHook:
        """Call ``fn(boundary_time)`` at every crossed multiple of
        ``width`` during :meth:`run`.

        Boundaries fire lazily, just before the first event at-or-past
        them is dispatched, with ``now`` set to the boundary — so a
        hook observes exactly the simulation state as of that instant.
        No heap events are created: an idle simulation still drains,
        and with no hooks registered the loop is unchanged (this is
        what keeps unprofiled runs byte-identical).

        Hooks must only *observe* (sample counters, copy state); they
        must not schedule events or resume processes.  Returns a handle
        for :meth:`remove_slice_hook`.
        """
        if width <= 0:
            raise ValueError(f"slice width must be positive, got {width!r}")
        hook = _SliceHook(width, fn, self._now + width)
        self._slice_hooks.append(hook)
        return hook

    def remove_slice_hook(self, hook: _SliceHook) -> None:
        self._slice_hooks.remove(hook)

    @property
    def now(self) -> float:
        return self._now

    # -- construction helpers ---------------------------------------------

    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, gen: Generator, name: str = "") -> Process:
        return Process(self, gen, name)

    def schedule(self, delay: float, fn: Callable[[], None]) -> Event:
        """Run a plain callable after ``delay``; returns its trigger event."""
        ev = self.timeout(delay)
        ev.add_callback(lambda _ev: fn())
        return ev

    def all_of(self, events) -> Event:
        """An event that fires when every event in ``events`` has fired.

        Once the combined event triggers (first failure, or last
        success), its callbacks are detached from every still-pending
        input, so waiting on long-lived events in a retry loop does not
        accumulate dead closures on them.
        """
        events = list(events)
        done = self.event()
        if not events:
            done.succeed([])
            return done
        values: List[Any] = [None] * len(events)
        remaining = [len(events)]
        cbs: List[Callable[[Event], None]] = []

        def make_cb(i):
            def cb(ev: Event):
                if done._triggered:
                    return
                if ev._exc is not None:
                    # Fail without touching ev._value: a failed event
                    # has no value to collect.
                    done.fail(ev._exc)
                    _detach(events, cbs)
                    return
                values[i] = ev._value
                remaining[0] -= 1
                if remaining[0] == 0:
                    done.succeed(values)

            return cb

        for i, ev in enumerate(events):
            cb = make_cb(i)
            cbs.append(cb)
            ev.add_callback(cb)
        if done._triggered:
            # An already-dispatched input failed the combination while
            # callbacks were still being attached.
            _detach(events, cbs)
        return done

    def any_of(self, events) -> Event:
        """An event that fires when the first of ``events`` fires.

        The shared callback removes itself from every losing input the
        moment a winner triggers: watchdog/retry patterns that race a
        fresh event against the same long-lived one on every iteration
        would otherwise grow that event's callback list without bound.
        """
        events = list(events)
        done = self.event()

        def cb(e: Event):
            if done._triggered:
                return
            if e._exc is not None:
                done.fail(e._exc)
            else:
                done.succeed(e._value)
            _detach(events, [cb] * len(events))

        for ev in events:
            ev.add_callback(cb)
        if done._triggered:
            _detach(events, [cb] * len(events))
        return done

    # -- execution ----------------------------------------------------------

    def run(self, until: Optional[float] = None) -> float:
        """Run until the queue drains or simulated time passes ``until``.

        Returns the simulation time when execution stopped.  Raises the
        first uncaught process exception, if any process crashed.
        """
        # Locals hoisted out of the dispatch loop: attribute lookups on
        # self are a measurable fraction of an event dispatch, and the
        # hook/crash lists are mutated in place (never rebound), so the
        # local bindings stay live.
        fifo = self._fifo
        pages = self._pages
        times = self._times
        heappop = heapq.heappop
        hooks = self._slice_hooks
        crashed = self._crashed
        dispatched = 0
        try:
            while True:
                if fifo:
                    if until is not None and self._now > until:
                        break
                    ev = fifo.popleft()
                else:
                    if not times:
                        break
                    when = times[0]
                    if until is not None and when > until:
                        break
                    heappop(times)
                    # Slice hooks fire only here, on time advance:
                    # within an instant ``next_at > now`` already holds
                    # (the old per-pop check was a no-op there).
                    if hooks:
                        for hook in hooks:
                            while hook.next_at <= when:
                                self._now = hook.next_at
                                hook.fn(hook.next_at)
                                hook.next_at += hook.width
                    self._now = when
                    page = pages.pop(when)
                    if len(page) == 1:
                        ev = page[0]
                    else:
                        fifo.extend(page)
                        ev = fifo.popleft()
                dispatched += 1
                ev._dispatch()
                if crashed:
                    _proc, err = crashed[0]
                    raise err
            if until is not None:
                # Horizon-bounded run: fire the boundaries between the
                # last dispatched event and ``until`` (a profiled run
                # would otherwise under-report the tail window and
                # break the sum-equals-wall invariant), then stop the
                # clock exactly at the horizon.
                if hooks:
                    for hook in hooks:
                        while hook.next_at <= until:
                            self._now = hook.next_at
                            hook.fn(hook.next_at)
                            hook.next_at += hook.width
                if until > self._now:
                    self._now = until
            return self._now
        finally:
            self.events_dispatched += dispatched

    def peek(self) -> float:
        """Time of the next scheduled event, or +inf if none."""
        if self._fifo:
            return self._now
        return self._times[0] if self._times else float("inf")

    # -- kernel internals ----------------------------------------------------

    def _push_triggered(self, ev: Event) -> None:
        self._fifo.append(ev)

    def _schedule_at(self, when: float, ev: Event) -> None:
        if when <= self._now:
            self._fifo.append(ev)
            return
        page = self._pages.get(when)
        if page is None:
            self._pages[when] = [ev]
            heapq.heappush(self._times, when)
        else:
            page.append(ev)

    def _note_crash(self, proc: Process, err: BaseException) -> None:
        self._crashed.append((proc, err))
