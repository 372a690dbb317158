"""Named metric instruments and the per-machine registry.

Every simulated layer (protocol, VMMC, NIC, node, faults) historically
grew ad-hoc counter attributes that each consumer had to know about.
:class:`MetricsRegistry` is the single namespace those layers register
into instead: one hierarchical name per instrument, one ``snapshot()``
that serializes everything (the ``repro profile`` JSON and the
experiment tables both read it).

Two instrument kinds:

* :class:`Gauge` — a named binding to a value computed on demand.
  Layer counters (``VMMC.messages_sent``, ``NIC.packets_sent``, ...)
  are exported this way: the attribute stays a plain number that the
  hot path increments, while the registry owns the *name*.
* :class:`~repro.sim.RunningStat` — streaming count/mean/min/max for
  sampled quantities (latencies, occupancies).

The registry also holds each layer's *sampled probes* (per-node NI
queue depth, interrupt and page-fault counters, ...): one reader per
metric, read by a :class:`~repro.obs.timeseries.TimeSeriesSampler`
at slice boundaries.  They sit in a table of their own, so
``snapshot()`` never reads them.

Names are dot-hierarchical (``svm.page_fetches``,
``nic.0.packets_sent``).  Re-registering a name rebinds it: layers
that can be instantiated more than once per machine (tests build a
bare ``VMMC`` next to a protocol-owned one) simply take over the name,
last instance wins.
"""

from __future__ import annotations

import weakref
from functools import partial
from typing import (Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple, Union)

from ..sim import RunningStat

__all__ = ["Gauge", "MetricsRegistry"]

Number = Union[int, float]
#: a probe reading: every node's value, indexed by node, or one
#: machine-wide number.
Reading = Union[Number, Sequence[Number]]


def _weak(obj: object) -> object:
    """A proxy of ``obj`` (``obj`` itself when it is one already)."""
    if isinstance(obj, weakref.ProxyTypes):
        return obj
    return weakref.proxy(obj)


class Gauge:
    """A named binding to a value read on demand."""

    __slots__ = ("name", "fn")

    def __init__(self, name: str, fn: Callable[[], Number]):
        self.name = name
        self.fn = fn

    def read(self) -> Number:
        return self.fn()

    def __repr__(self) -> str:
        return f"Gauge({self.name!r})"


Instrument = Union[Gauge, RunningStat]


class MetricsRegistry:
    """One namespace of instruments per simulated machine.

    Registration can be *deferred*: a layer with many cheap instruments
    (the Machine's per-node NIC/node gauges — ~10 per node, 10k+ names
    at 1024 nodes) hands the registry a thunk via :meth:`defer` instead
    of registering eagerly.  Pending thunks run on the first namespace
    query (``get``/``names``/``snapshot``/iteration), so building a
    large machine costs O(1) registry work per node and a machine whose
    metrics are never read pays nothing at all.  Deferral changes only
    *when* names materialize, never instrument values: layers keep
    their own counters/stats live from construction and the thunk binds
    the existing objects.
    """

    def __init__(self):
        self._instruments: Dict[str, Instrument] = {}
        #: sampled probes, name -> (kind, reader), in registration order.
        self._probes: Dict[str, Tuple[str, Callable[[], Reading]]] = {}
        self._pending: List[Callable[["MetricsRegistry"], None]] = []

    # -------------------------------------------------------------- register

    def defer(self, register_fn: Callable[["MetricsRegistry"], None]) -> None:
        """Queue ``register_fn(registry)`` until the first query."""
        self._pending.append(register_fn)

    def _materialize(self) -> None:
        while self._pending:
            pending, self._pending = self._pending, []
            for fn in pending:
                fn(self)

    def gauge(self, name: str, fn: Callable[[], Number]) -> Gauge:
        """Bind ``name`` to ``fn()``, read at snapshot time."""
        instrument = Gauge(name, fn)
        self._instruments[name] = instrument
        return instrument

    def register_stat(self, name: str, stat: RunningStat) -> RunningStat:
        """Bind ``name`` to an *existing* RunningStat.

        Layers that own their accumulator from construction (the NIC's
        delivery-latency stat) register it here at materialize time
        without resetting the values recorded so far.
        """
        self._instruments[name] = stat
        return stat

    def register_gauges(self, prefix: str, obj: object, *attrs: str) -> None:
        """Export plain counter attributes of ``obj`` as gauges.

        This is how layers with pre-existing ad-hoc counters join the
        registry without changing their hot-path increments.
        """
        for attr in attrs:
            self.register_gauge(f"{prefix}.{attr}", obj, attr)

    def register_gauge(self, name: str, obj: object, attr: str) -> Gauge:
        """Bind ``name`` to ``obj.<attr>``, holding ``obj`` weakly.

        The layers that export counters hold the machine that owns
        this registry, so a strong binding back to them would be a
        reference cycle.  Reading the gauge once ``obj`` is gone raises
        ``ReferenceError``.
        """
        getattr(obj, attr)  # fail fast on typos
        return self.gauge(name, lambda o=_weak(obj), a=attr:
                          getattr(o, a))

    def register_probe(self, name: str, kind: str, owner: object,
                       read: Callable[[object], Reading]) -> None:
        """Declare a sampled probe: ``read(owner)`` returns every
        node's value in one pass, or one machine-wide number.

        ``kind`` is ``"gauge"`` (a level) or ``"counter"`` (a running
        total); see :meth:`TimeSeriesSampler.probe
        <repro.obs.timeseries.TimeSeriesSampler.probe>`.  ``owner`` is
        held weakly, as in :meth:`register_gauge`.
        """
        self._probes[name] = (kind, partial(read, _weak(owner)))

    # ----------------------------------------------------------------- query

    def get(self, name: str) -> Optional[Instrument]:
        if self._pending:
            self._materialize()
        return self._instruments.get(name)

    def probes(self) -> List[Tuple[str, str, Callable[[], Reading]]]:
        """Every probe as ``(name, kind, reader)``, in the order the
        layers declared them."""
        if self._pending:
            self._materialize()
        return [(name, kind, read)
                for name, (kind, read) in self._probes.items()]

    def names(self) -> Tuple[str, ...]:
        if self._pending:
            self._materialize()
        return tuple(sorted(self._instruments))

    def __contains__(self, name: str) -> bool:
        if self._pending:
            self._materialize()
        return name in self._instruments

    def __iter__(self) -> Iterator[Tuple[str, Instrument]]:
        if self._pending:
            self._materialize()
        return iter(sorted(self._instruments.items()))

    def __len__(self) -> int:
        if self._pending:
            self._materialize()
        return len(self._instruments)

    # -------------------------------------------------------------- snapshot

    def snapshot(self) -> Dict[str, object]:
        """All instruments as plain JSON-serializable values.

        Gauges flatten to numbers; RunningStats to a
        ``{count, total, mean, min, max, variance, stdev}`` dict
        (min/max are None while empty, never ``inf``; variance/stdev
        are the streaming Welford values, 0.0 below two samples).
        """
        out: Dict[str, object] = {}
        for name, instrument in self:
            if isinstance(instrument, Gauge):
                out[name] = instrument.read()
            else:
                out[name] = {
                    "count": instrument.count,
                    "total": instrument.total,
                    "mean": instrument.mean,
                    "min": instrument.min if instrument.count else None,
                    "max": instrument.max if instrument.count else None,
                    "variance": instrument.variance,
                    "stdev": instrument.stdev,
                }
        return out
