"""Discrete-event simulation kernel.

A tiny, deterministic, generator-based discrete-event engine in the
style of SimPy, sized for this project.  Simulated *processes* are
Python generators that ``yield`` :class:`Event` objects; the kernel
resumes a process when the event it is waiting on fires, passing the
event's value back through ``send``.

Time is a ``float``; this project uses microseconds throughout.

Determinism: events scheduled for the same instant fire in scheduling
order, so a simulation with the same inputs always produces the same
trace.  The scheduler keeps the ``(when, seq)`` total order —
time-ascending, scheduling-order within an instant — in two lanes:

* events triggered at the **current instant** (the overwhelmingly
  common case: every ``succeed``/``fail``, every queue hand-off) go to
  a FIFO lane and never touch the heap;
* future events are ``(when, seq, event)`` entries on one min-heap,
  ``seq`` being a per-simulator counter, so equal times break ties in
  scheduling order and no two entries ever compare their events.

On time advance the loop pops the head entry and moves every further
entry due at the same instant onto the FIFO lane behind it, so an
instant's scheduled events run before anything they trigger.

Dispatch is flat: events queue themselves on trigger, and
:meth:`Simulator.run` resumes waiting processes itself, so ``run`` is
the only Python frame above ``gen.send``.  Delays and horizons must be
finite.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from itertools import count
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
        # Callables, and waiting Processes (resumed by Simulator.run
        # itself, no bound method per wait), in registration order.
        self._callbacks: List[Any] = []

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
        self.sim._fifo.append(self)
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event with an exception to raise in waiters."""
        if self._triggered:
            raise SimulationError("event triggered twice")
        self._triggered = True
        self._exc = exc
        self.sim._fifo.append(self)
        return self

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        if self._callbacks is _CONSUMED:
            # Already dispatched: run at once (same sim instant).
            fn(self)
        else:
            self._callbacks.append(fn)


class _Consumed(list):
    """Sentinel callback list for dispatched events (append = run now)."""

    def append(self, fn):  # type: ignore[override]
        raise SimulationError("internal: append to consumed callback list")


_CONSUMED = _Consumed()
_INF = float("inf")


class Timeout(Event):
    """An event that fires ``delay`` time units after creation."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        # Flattened Event.__init__ + scheduling: one Timeout per station
        # hold makes this constructor a hot-path allocation, so it
        # files itself straight into the FIFO lane or onto the heap.
        if not 0 <= delay < _INF:
            raise ValueError(f"delay must be finite and >= 0, got {delay!r}")
        self.sim = sim
        self._value = value
        self._exc = None
        self._triggered = True
        self._callbacks = []
        now = sim.now
        when = now + delay
        if when <= now:
            sim._fifo.append(self)
            return
        heappush(sim._heap, (when, next(sim._seq), self))


_new = object.__new__


def _granted(sim: "Simulator", value: Any = None) -> Timeout:
    """A zero-delay :class:`Timeout` for an already-granted request.

    ``Resource.request``, ``Store.put`` and ``Store.get`` return one
    per grant.  It is queued on the FIFO lane exactly as
    ``Timeout(sim, 0, value)`` would be, without the delay check a
    zero delay never needs.
    """
    ev = _new(Timeout)
    ev.sim = sim
    ev._value = value
    ev._exc = None
    ev._triggered = True
    ev._callbacks = []
    sim._fifo.append(ev)
    return ev


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
        boot._callbacks.append(self)
        boot.succeed()

    @property
    def is_alive(self) -> bool:
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at this instant."""
        if self._triggered:
            raise SimulationError("cannot interrupt a finished process")
        self._detach()
        kick = Event(self.sim)
        kick._callbacks.append(self)
        kick.fail(Interrupt(cause))

    def close(self) -> None:
        """Stop the process for good, without resuming it.

        Detaches it from the event it waits on and closes its
        generator; the process never fires.  A daemon parked on a
        queue of its owner is a reference cycle (queue -> event ->
        process -> generator frame -> owner -> queue); closing it once
        the run is over breaks that cycle (see ``Machine.close``).
        """
        self._detach()
        self._gen.close()

    def _detach(self) -> None:
        """Leave the wait: the event waited on no longer resumes us."""
        target = self._waiting_on
        if target is not None:
            try:
                target._callbacks.remove(self)
            except (ValueError, SimulationError):
                pass
        self._waiting_on = None

    # -- kernel internals ------------------------------------------------

    def _crash(self, err: BaseException) -> None:
        self._gen.close()
        self.fail(err)
        self.sim._crashed.append((self, err))


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


# The combination callbacks below are slotted objects, not closures: a
# closure that names itself (or a list of its siblings) is a reference
# cycle, which only the cyclic collector frees.  Each drops its inputs
# when the combination triggers, so a finished combination is freed by
# reference counting alone.


class _AnyOf:
    """The callback one :meth:`Simulator.any_of` shares among its inputs."""

    __slots__ = ("done", "events")

    def __init__(self, done: Event, events: List[Event]):
        self.done = done
        self.events: Optional[List[Event]] = events

    def __call__(self, ev: Event) -> None:
        done = self.done
        if done._triggered:
            return
        if ev._exc is not None:
            done.fail(ev._exc)
        else:
            done.succeed(ev._value)
        events = self.events
        self.events = None
        _detach(events, [self] * len(events))


class _AllOf:
    """The shared state of one :meth:`Simulator.all_of` combination."""

    __slots__ = ("done", "events", "cbs", "values", "remaining")

    def __init__(self, done: Event, events: List[Event]):
        self.done = done
        self.events: Optional[List[Event]] = events
        self.cbs: Optional[List["_AllOfInput"]] = []
        self.values: List[Any] = [None] * len(events)
        self.remaining = len(events)

    def release(self) -> None:
        """Detach from the pending inputs and drop them (on trigger)."""
        _detach(self.events, self.cbs)
        self.events = self.cbs = None


class _AllOfInput:
    """The callback of input ``index`` of an :class:`_AllOf`."""

    __slots__ = ("combo", "index")

    def __init__(self, combo: _AllOf, index: int):
        self.combo = combo
        self.index = index

    def __call__(self, ev: Event) -> None:
        combo = self.combo
        done = combo.done
        if done._triggered:
            return
        if ev._exc is not None:
            # Fail without touching ev._value: a failed event has no
            # value to collect.
            done.fail(ev._exc)
            combo.release()
            return
        combo.values[self.index] = ev._value
        combo.remaining -= 1
        if combo.remaining == 0:
            done.succeed(combo.values)
            combo.release()


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

    Storage is two lanes (see the module docstring): ``_fifo`` holds
    events due at the current instant in scheduling order, and
    ``_heap`` holds one ``(when, seq, event)`` entry per future event,
    ``seq`` drawn from ``_seq``.  ``events_dispatched`` counts
    every dispatched event; perfbench's ``sim.engine.ns_per_event``
    divides untraced wall time by it.  ``now`` is the simulation
    clock, a plain attribute that only the kernel writes.
    """

    def __init__(self):
        self.now = 0.0
        self._fifo: deque = deque()
        self._heap: List[tuple] = []
        self._seq = count()
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
        if not 0 < width < _INF:
            raise ValueError(
                f"slice width must be finite and positive, got {width!r}")
        hook = _SliceHook(width, fn, self.now + width)
        self._slice_hooks.append(hook)
        return hook

    def remove_slice_hook(self, hook: _SliceHook) -> None:
        self._slice_hooks.remove(hook)

    # -- construction helpers ---------------------------------------------

    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, gen: Generator, name: str = "") -> Process:
        return Process(self, gen, name)

    def schedule(self, delay: float, fn: Callable[[], None]) -> Event:
        """Run a plain callable after ``delay``; returns its trigger event."""
        ev = Timeout(self, delay)
        ev.add_callback(lambda _ev: fn())
        return ev

    def all_of(self, events) -> Event:
        """An event that fires when every event in ``events`` has fired.

        Once the combined event triggers (first failure, or last
        success), its callbacks are detached from every still-pending
        input, so waiting on long-lived events in a retry loop does not
        accumulate dead callbacks on them.
        """
        events = list(events)
        done = self.event()
        if not events:
            done.succeed([])
            return done
        combo = _AllOf(done, events)
        cbs = combo.cbs
        for i, ev in enumerate(events):
            cb = _AllOfInput(combo, i)
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
        cb = _AnyOf(done, events)
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
        if until is not None:
            if not -_INF < until < _INF:
                raise ValueError(
                    f"run horizon must be finite, got {until!r}")
            if self.now > until:
                # Already past the horizon: dispatch nothing.  Inside
                # the loop the clock only advances to times <= until,
                # so the current-instant lane needs no horizon check.
                return self.now
        # Locals hoisted out of the dispatch loop: attribute lookups on
        # self are a measurable fraction of an event dispatch, and the
        # hook/crash lists are mutated in place (never rebound), so the
        # local bindings stay live.
        fifo = self._fifo
        heap = self._heap
        pop = heappop
        hooks = self._slice_hooks
        crashed = self._crashed
        dispatched = 0
        try:
            while True:
                if fifo:
                    ev = fifo.popleft()
                else:
                    if not heap:
                        break
                    when = heap[0][0]
                    if until is not None and when > until:
                        break
                    ev = pop(heap)[2]
                    # Slice hooks fire only here, on time advance:
                    # within an instant ``next_at > now`` already holds
                    # (the old per-pop check was a no-op there).
                    if hooks:
                        for hook in hooks:
                            while hook.next_at <= when:
                                self.now = hook.next_at
                                hook.fn(hook.next_at)
                                hook.next_at += hook.width
                    self.now = when
                    # The rest of this instant's batch queues behind
                    # ``ev``, ahead of anything the batch triggers.
                    while heap and heap[0][0] == when:
                        fifo.append(pop(heap)[2])
                dispatched += 1
                # Run the callbacks in registration order, resuming
                # waiting processes right here.
                callbacks = ev._callbacks
                ev._callbacks = _CONSUMED
                for waiter in callbacks:
                    if type(waiter) is not Process:
                        waiter(ev)
                        continue
                    waiter._waiting_on = None
                    fired = ev
                    # Yielding an already-dispatched event resumes at
                    # once with its outcome: loop, not recurse.
                    while True:
                        try:
                            if fired._exc is None:
                                target = waiter._send(fired._value)
                            else:
                                target = waiter._throw(fired._exc)
                            if not isinstance(target, Event):
                                raise SimulationError(
                                    f"process {waiter.name!r} yielded "
                                    f"{target!r}, not an Event")
                        except StopIteration as stop:
                            waiter.succeed(stop.value)
                            break
                        except BaseException as err:  # noqa: BLE001 - process crashed
                            waiter._crash(err)
                            break
                        queued = target._callbacks
                        if queued is _CONSUMED:
                            fired = target
                            continue
                        waiter._waiting_on = target
                        queued.append(waiter)
                        break
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
                            self.now = hook.next_at
                            hook.fn(hook.next_at)
                            hook.next_at += hook.width
                if until > self.now:
                    self.now = until
            return self.now
        finally:
            self.events_dispatched += dispatched

    def peek(self) -> float:
        """Time of the next scheduled event, or +inf if none."""
        if self._fifo:
            return self.now
        return self._heap[0][0] if self._heap else _INF
