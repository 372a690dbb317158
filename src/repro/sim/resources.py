"""Queueing primitives built on the event kernel.

These model the contended stations in the simulated hardware: FIFO
resources (a CPU, a DMA engine, the LANai processor), bounded stores
(the NI post queue, packet queues) and byte-rate servers (a bus or a
link that transfers ``size`` bytes at ``bandwidth``).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from .engine import Event, Simulator, SimulationError

__all__ = ["Resource", "Store", "RateServer"]


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

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiters: Deque[Event] = deque()
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
        ev = _ReqEvent(self.sim)
        ev._req_time = self.sim.now
        if self._in_use < self.capacity:
            self._accrue()
            self._in_use += 1
            ev.succeed()
        else:
            self._waiters.append(ev)
        return ev

    def release(self) -> None:
        if self._in_use <= 0:
            raise SimulationError(f"release of idle resource {self.name!r}")
        if self._waiters:
            ev = self._waiters.popleft()
            self.total_wait_time += self.sim.now - ev._req_time
            ev.succeed()
        else:
            self._accrue()
            self._in_use -= 1

    def use(self, duration: float):
        """Generator helper: acquire, hold for ``duration``, release."""
        yield self.request()
        try:
            yield self.sim.timeout(duration)
        finally:
            self.release()

    def _accrue(self) -> None:
        now = self.sim.now
        self.busy_time += self._in_use * (now - self._last_change)
        self._last_change = now

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

    def __init__(self, sim: Simulator, capacity: Optional[int] = None,
                 name: str = ""):
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1 or None")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[Event] = deque()  # events carrying .item
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
        self.total_puts += 1
        ev = _ReqEvent(self.sim)
        ev._item = item
        ev._req_time = self.sim.now
        if self._getters:
            getter = self._getters.popleft()
            getter.succeed(item)
            ev.succeed()
        elif not self.is_full:
            self._items.append(item)
            self.max_occupancy = max(self.max_occupancy, len(self._items))
            ev.succeed()
        else:
            self._putters.append(ev)
        return ev

    def get(self) -> Event:
        """Remove the oldest item; the event fires with the item."""
        ev = self.sim.event()
        if self._items:
            item = self._items.popleft()
            self._admit_waiting_putter()
            ev.succeed(item)
        else:
            self._getters.append(ev)
        return ev

    def _admit_waiting_putter(self) -> None:
        if self._putters and not self.is_full:
            pev = self._putters.popleft()
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
    project-wide microsecond time unit.
    """

    def __init__(self, sim: Simulator, bandwidth_mbps: float,
                 overhead_us: float = 0.0, name: str = ""):
        if bandwidth_mbps <= 0:
            raise ValueError("bandwidth must be positive")
        self.sim = sim
        self.bandwidth = bandwidth_mbps
        self.overhead = overhead_us
        self.name = name
        self._res = Resource(sim, 1, name=name)
        self.total_bytes = 0

    def service_time(self, size_bytes: int) -> float:
        return self.overhead + size_bytes / self.bandwidth

    def transfer(self, size_bytes: int):
        """Generator: queue for the station and move ``size_bytes``."""
        self.total_bytes += size_bytes
        yield self._res.request()
        try:
            yield self.sim.timeout(self.service_time(size_bytes))
        finally:
            self._res.release()

    @property
    def queue_len(self) -> int:
        return self._res.queue_len

    @property
    def busy(self) -> bool:
        return self._res.in_use > 0

    def sample_busy(self) -> float:
        """Cumulative station busy time as of now (see Resource)."""
        return self._res.sample_busy()
