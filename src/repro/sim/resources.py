"""Queueing primitives built on the event kernel.

These model the contended stations in the simulated hardware: FIFO
resources (a CPU, a DMA engine, the LANai processor), bounded stores
(the NI post queue, packet queues) and byte-rate servers (a bus or a
link that transfers ``size`` bytes at ``bandwidth``).

A 1024-node machine builds thousands of stations, most of which rarely
queue anyone: each is slotted and keeps its waiters in a plain list,
which stays a few pointers long and costs 56 bytes when empty.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, List, Optional, Tuple, Union

from .engine import _INF, Event, Simulator, SimulationError, _granted

__all__ = ["Resource", "Store", "RateServer"]

#: the items of a store that has never buffered one: no deque yet.
_NO_ITEMS: Tuple[()] = ()


class _ReqEvent(Event):
    """Event with request metadata (arrival time, carried item)."""

    __slots__ = ("_req_time", "_item")


class Resource:
    """A FIFO resource with ``capacity`` concurrent holders.

    Usage from a process::

        grant = yield resource.request()
        try:
            yield sim.timeout(service_time)
        finally:
            resource.release()
    """

    __slots__ = ("sim", "capacity", "name", "_in_use", "_waiters",
                 "total_requests", "total_wait_time", "busy_time",
                 "_last_change")

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = ""):
        if not isinstance(capacity, int) or capacity < 1:
            raise ValueError(
                f"capacity must be an integer >= 1, got {capacity!r}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiters: List[_ReqEvent] = []
        # Cumulative stats for utilization / queueing analysis.
        self.total_requests = 0
        self.total_wait_time = 0.0
        self.busy_time = 0.0
        self._last_change = 0.0

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queue_len(self) -> int:
        return len(self._waiters)

    def request(self) -> Event:
        """Return an event that fires when a slot is granted."""
        self.total_requests += 1
        if self._in_use < self.capacity:
            now = self.sim.now
            self.busy_time += self._in_use * (now - self._last_change)
            self._last_change = now
            self._in_use += 1
            # Granted: queued now, so same-instant order is request order.
            return _granted(self.sim)
        ev = _ReqEvent(self.sim)
        ev._req_time = self.sim.now
        self._waiters.append(ev)
        return ev

    def release(self) -> None:
        if self._in_use <= 0:
            raise SimulationError(f"release of idle resource {self.name!r}")
        if self._waiters:
            ev = self._waiters.pop(0)
            self.total_wait_time += self.sim.now - ev._req_time
            ev.succeed()
        else:
            now = self.sim.now
            self.busy_time += self._in_use * (now - self._last_change)
            self._last_change = now
            self._in_use -= 1

    def sample_busy(self) -> float:
        """Cumulative busy time *as of now*, including the open span.

        ``busy_time`` only accrues on state changes; utilization
        sampling (``repro.obs``) needs the value mid-span without
        mutating accounting state.
        """
        return self.busy_time + self._in_use * (self.sim.now
                                                - self._last_change)


class Store:
    """A FIFO buffer of items with optional bounded capacity.

    ``put`` blocks (the returned event stays pending) while the store
    is full; ``get`` blocks while it is empty.  This models the NI post
    queue, whose *fullness stalls the posting host processor* — a
    first-order effect in the paper's Barnes-spatial result.
    """

    __slots__ = ("sim", "capacity", "name", "_items", "_getters",
                 "_putters", "total_puts", "total_put_stall_time",
                 "max_occupancy")

    def __init__(self, sim: Simulator, capacity: Optional[int] = None,
                 name: str = ""):
        if capacity is not None and (not isinstance(capacity, int)
                                     or capacity < 1):
            raise ValueError(
                f"capacity must be an integer >= 1 or None, got {capacity!r}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        #: buffered items; the shared empty tuple until the first item
        #: is buffered (a store whose getters always wait builds none).
        self._items: Union[Deque[Any], Tuple[()]] = _NO_ITEMS
        self._getters: List[Event] = []
        self._putters: List[_ReqEvent] = []  # events carrying ._item
        self.total_puts = 0
        self.total_put_stall_time = 0.0
        self.max_occupancy = 0

    def __len__(self) -> int:
        return len(self._items)

    @property
    def is_full(self) -> bool:
        return self.capacity is not None and len(self._items) >= self.capacity

    def put(self, item: Any) -> Event:
        """Insert ``item``; the event fires once the item is accepted."""
        if self.capacity is None or len(self._items) < self.capacity:
            self.put_nowait(item)
            return _granted(self.sim)
        self.total_puts += 1
        ev = _ReqEvent(self.sim)
        ev._item = item
        ev._req_time = self.sim.now
        self._putters.append(ev)
        return ev

    def put_nowait(self, item: Any) -> None:
        """Insert ``item`` at once, for a caller that never waits on it.

        Hands ``item`` to the oldest waiting getter, else buffers it;
        :meth:`put` does the same through here and adds the granted
        event.  Raises :class:`SimulationError` on a full bounded
        store, where ``put`` would block.
        """
        items = self._items
        if self.capacity is not None and len(items) >= self.capacity:
            raise SimulationError(f"put_nowait on full store {self.name!r}")
        self.total_puts += 1
        if self._getters:
            self._getters.pop(0).succeed(item)
            return
        if items is _NO_ITEMS:
            items = self._items = deque()
        items.append(item)
        if len(items) > self.max_occupancy:
            self.max_occupancy = len(items)

    def get(self) -> Event:
        """Remove the oldest item; the event fires with the item."""
        if self._items:
            item = self._items.popleft()
            if self._putters:
                self._admit_waiting_putter()
            return _granted(self.sim, item)
        ev = Event(self.sim)
        self._getters.append(ev)
        return ev

    def _admit_waiting_putter(self) -> None:
        if not self.is_full:
            pev = self._putters.pop(0)
            self._items.append(pev._item)
            self.max_occupancy = max(self.max_occupancy, len(self._items))
            self.total_put_stall_time += (
                self.sim.now - pev._req_time
            )
            pev.succeed()


class RateServer:
    """A serial station that moves bytes at a fixed rate.

    Models a bus, link or DMA engine: each transfer occupies the
    station for ``overhead + size / bandwidth``; transfers queue FIFO.
    Bandwidth is in bytes per microsecond (== MB/s), matching the
    project-wide microsecond time unit.  The holder (the NIC loops)
    requests :attr:`station`, holds it for that time, releases it and
    adds ``size`` to :attr:`total_bytes`.
    """

    __slots__ = ("sim", "bandwidth", "overhead", "name", "station",
                 "total_bytes")

    def __init__(self, sim: Simulator, bandwidth_mbps: float,
                 overhead_us: float = 0.0, name: str = ""):
        if not 0 < bandwidth_mbps < _INF:
            raise ValueError(f"bandwidth must be finite and positive, "
                             f"got {bandwidth_mbps!r}")
        if not 0 <= overhead_us < _INF:
            raise ValueError(f"overhead must be finite and >= 0, "
                             f"got {overhead_us!r}")
        self.sim = sim
        self.bandwidth = bandwidth_mbps
        self.overhead = overhead_us
        self.name = name
        #: the FIFO station each transfer holds for its service time.
        self.station = Resource(sim, 1, name=name)
        self.total_bytes = 0

    @property
    def queue_len(self) -> int:
        return self.station.queue_len

    @property
    def busy(self) -> bool:
        return self.station.in_use > 0

    def sample_busy(self) -> float:
        """Cumulative station busy time as of now (see Resource)."""
        return self.station.sample_busy()
