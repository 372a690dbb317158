"""Sim-time telemetry: sampled time series over a running machine.

The paper's argument is about *when* overhead happens — asynchronous
protocol processing interrupting compute — but every instrument in
:mod:`repro.obs.metrics` is an end-of-run snapshot.  At datacenter
scale the aggregate actively hides the story: one hot KV shard can
saturate a single node's NI while 1023 idle nodes average it away.

:class:`TimeSeriesSampler` closes the gap without perturbing a single
event.  It rides :meth:`repro.sim.Simulator.add_slice_hook` (boundary
crossings fire lazily; no heap events), polls the *probes* the
layers declared in the machine's :class:`~repro.obs.MetricsRegistry`
— per-node NI queue depth, in-flight packets, outstanding retransmits,
lock wait depth, page-fault and invalidation counters — and folds each
reading into

* a per-``(metric, node)`` :class:`LogHistogram` plus
  :class:`~repro.sim.RunningStat` (O(buckets) memory per node, so a
  1024-node machine stays cheap), and
* one columnar per-metric series (``array``-backed, the trace-sink
  idiom): per-slice sum, max, and argmax node, bounded by decimation —
  when the series fills, every second point is dropped and the keep
  stride doubles, so memory is O(max_samples) for any run length.

*Timeline* probes instead keep per-slice, per-index rows (the
Figure-3 phase set is built from them), merged pairwise on decimation
so they always sum to the run.

On top of the series sit the scale-aware reductions:
:meth:`~TimeSeriesSampler.summary` produces per-metric rollups, top-k
hot-node tables and a max/median skew report that makes a hot shard
visible in one line.

Sampling is strictly opt-in: a run without a sampler attached has no
hook, takes no samples and stays byte-identical to pre-telemetry
builds (``tests/test_golden.py`` pins this).  With a tracer handed to
the constructor the sampler additionally emits ``ts.sample`` /
``ts.rollup`` records (declared in :mod:`repro.sim.trace_schema`) so
the offline tooling can join telemetry with the protocol event stream.
"""

from __future__ import annotations

import math
from array import array
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..sim import RunningStat
from .metrics import Reading

__all__ = ["LogHistogram", "TimeSeriesSampler", "TS_SCHEMA",
           "telemetry_brief"]

#: telemetry summary schema version (bump on breaking change).
TS_SCHEMA = 1


class LogHistogram:
    """Streaming histogram over power-of-two buckets.

    Bucket ``e`` counts values in ``[2**(e-1), 2**e)`` (half-open, via
    ``math.frexp``); non-positive values land in a dedicated zero
    bucket.  Memory is O(distinct exponents) — ~64 buckets cover the
    full double range — so one histogram per (node, metric) stays
    affordable at 1024 nodes where a reservoir of raw samples would
    not.
    """

    __slots__ = ("count", "zeros", "_buckets")

    def __init__(self):
        self.count = 0
        self.zeros = 0
        self._buckets: Dict[int, int] = {}

    def add(self, value: float) -> None:
        self.count += 1
        if value <= 0.0:
            self.zeros += 1
            return
        _, exp = math.frexp(value)
        self._buckets[exp] = self._buckets.get(exp, 0) + 1

    def merge(self, other: "LogHistogram") -> "LogHistogram":
        """Fold ``other`` into self (cross-node aggregation)."""
        self.count += other.count
        self.zeros += other.zeros
        for exp, n in other._buckets.items():
            self._buckets[exp] = self._buckets.get(exp, 0) + n
        return self

    def buckets(self) -> List[Tuple[float, int]]:
        """``(upper_bound, count)`` pairs, ascending, zeros first as
        ``(0.0, zeros)`` when present."""
        out: List[Tuple[float, int]] = []
        if self.zeros:
            out.append((0.0, self.zeros))
        out.extend((float(2 ** exp), self._buckets[exp])
                   for exp in sorted(self._buckets))
        return out

    def quantile(self, q: float) -> float:
        """Upper bound of the bucket holding the ``q``-quantile.

        An approximation by construction (within one power of two);
        0.0 for an empty histogram.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q!r} outside [0, 1]")
        if self.count == 0:
            return 0.0
        target = q * self.count
        seen = 0
        for le, n in self.buckets():
            seen += n
            if seen >= target:
                return le
        return self.buckets()[-1][0]

    def to_dict(self) -> dict:
        return {"count": self.count,
                "buckets": [[le, n] for le, n in self.buckets()]}

    def __repr__(self) -> str:
        return (f"LogHistogram(count={self.count}, "
                f"buckets={len(self._buckets) + bool(self.zeros)})")


class _NodeTrack:
    """Per-(metric, node) accumulators: O(buckets), never O(samples)."""

    __slots__ = ("hist", "stat", "last_raw")

    def __init__(self):
        self.hist = LogHistogram()
        self.stat = RunningStat()
        self.last_raw: Optional[float] = None


class _Series:
    """One metric: its reader, per-node tracks and columnar series."""

    __slots__ = ("kind", "read", "tracks", "sum_arr", "max_arr",
                 "argmax_arr")

    def __init__(self, kind: str, read: Callable[[], Reading]):
        self.kind = kind                     # "gauge" | "counter"
        self.read = read
        #: node None is the one track of a machine-wide probe.
        self.tracks: Dict[Optional[int], _NodeTrack] = {}
        self.sum_arr = array("d")
        self.max_arr = array("d")
        self.argmax_arr = array("l")

    def track(self, node: Optional[int]) -> _NodeTrack:
        t = self.tracks.get(node)
        if t is None:
            t = self.tracks[node] = _NodeTrack()
        return t


class _Timeline:
    """One timeline probe: per-slice rows of per-index deltas."""

    __slots__ = ("fn", "base", "last", "pending", "rows")

    def __init__(self, fn: Callable[[], Sequence[float]]):
        self.fn = fn
        self.base: Optional[List[float]] = None   # reading at attach
        self.last: Optional[List[float]] = None
        #: deltas of ticks not kept yet (stride > 1 after decimation).
        self.pending: Optional[List[float]] = None
        self.rows: List[List[float]] = []


class TimeSeriesSampler:
    """Samples registered probes at fixed sim-time boundaries.

    Attach to an SVM backend before running, through the runner::

        sampler = TimeSeriesSampler(cadence_us=1000.0)
        result = run_svm(app, GENIMA, telemetry=sampler)
        print(result.telemetry["metrics"]["ni.queue_depth"]["skew"])

    ``cadence_us`` is the sampling slice width; ``max_samples`` bounds
    the columnar series (decimate-by-2 on overflow); ``top_k`` sizes
    the hot-node tables; ``tracer`` (optional) receives ``ts.*``
    records for kept samples.  :meth:`attach` takes the probes the
    layers declared in the machine's registry; more register through
    :meth:`probe` (the phase set, :func:`repro.obs.probe_phases`).
    """

    def __init__(self, cadence_us: float = 1000.0,
                 max_samples: int = 2048, top_k: int = 8,
                 tracer=None):
        if not 0 < cadence_us < math.inf:
            raise ValueError(
                f"cadence_us must be finite and positive, "
                f"got {cadence_us!r}")
        for name, value, least in (("max_samples", max_samples, 2),
                                   ("top_k", top_k, 0)):
            if (not isinstance(value, int) or isinstance(value, bool)
                    or value < least):
                raise ValueError(
                    f"{name} must be an integer >= {least}, got {value!r}")
        self.cadence_us = cadence_us
        self.max_samples = max_samples
        self.top_k = top_k
        self.tracer = tracer
        self.times = array("d")
        self._series: Dict[str, _Series] = {}
        self._timelines: Dict[str, _Timeline] = {}
        #: end time of each kept timeline row (a row starts where the
        #: previous one ends, the first at attach).
        self._row_t1 = array("d")
        self.sim = None
        self.machine = None
        self.protocol = None
        self._hook = None
        self._attached = False
        self._stride = 1
        self._tick = 0
        self._t_attach = 0.0
        self._t_final: Optional[float] = None

    # ------------------------------------------------------------ probes

    def probe(self, metric: str, kind: str,
              read: Callable[[], Reading]) -> None:
        """Sample ``read()``, which returns every node's value in one
        pass (a sequence indexed by node) or one machine-wide number
        (node None: no top/skew entries).  ``kind`` says what a
        reading is:

        * ``"gauge"`` — an instantaneous level (queue depth,
          outstanding count);
        * ``"counter"`` — a cumulative count: the series records
          per-slice deltas, the summary the totals;
        * ``"timeline"`` — a cumulative count kept as per-slice rows
          of per-index deltas (:meth:`timeline`), with no rollup.
        """
        if metric in self._series or metric in self._timelines:
            raise ValueError(f"metric {metric!r} already registered")
        if kind == "timeline":
            self._timelines[metric] = _Timeline(read)
        elif kind in ("gauge", "counter"):
            self._series[metric] = _Series(kind, read)
        else:
            raise ValueError(
                f"kind must be gauge|counter|timeline, got {kind!r}")

    def metrics(self) -> Tuple[str, ...]:
        return tuple(self._series)

    # ------------------------------------------------------------ wiring

    def attach(self, backend) -> "TimeSeriesSampler":
        """Hook into a backend exposing ``machine`` (and optionally a
        protocol): samples every probe in the machine's registry."""
        if self._attached:
            raise RuntimeError("sampler already attached (samplers "
                               "are single-use: one per run)")
        self._attached = True
        self.machine = backend.machine
        self.sim = self.machine.sim
        self._t_attach = self.sim.now
        for metric, kind, read in self.machine.metrics.probes():
            self.probe(metric, kind, read)
        self.protocol = getattr(backend, "protocol", None)
        for timeline in self._timelines.values():
            timeline.base = timeline.last = list(timeline.fn())
        self._hook = self.sim.add_slice_hook(self.cadence_us,
                                             self._sample)
        return self

    def finalize(self) -> None:
        """Take the trailing partial slice and detach the hook."""
        if self._hook is None:
            return
        last = self.times[-1] if self.times else self._t_attach
        if self.sim.now > last:
            self._sample(self.sim.now, force=True)
        self._t_final = self.sim.now
        self.sim.remove_slice_hook(self._hook)
        self._hook = None
        if self.tracer is not None:
            for metric, series in self._series.items():
                roll = self._rollup(series)
                self.tracer.record(
                    self.sim.now, "ts.rollup", metric=metric,
                    nodes=roll["nodes"], count=roll["count"],
                    mean=roll["mean"], peak=roll["peak"],
                    peak_node=roll["peak_node"])

    # ---------------------------------------------------------- sampling

    def _sample(self, t: float, force: bool = False) -> None:
        keep = force or (self._tick % self._stride == 0)
        self._tick += 1
        if keep:
            self.times.append(t)
        if self._timelines:
            self._sample_timelines(t, keep)
        for metric, series in self._series.items():
            counter = series.kind == "counter"
            ssum = 0.0
            smax = -math.inf
            argmax = -1
            values = series.read()
            readings = (((None, values),)
                        if isinstance(values, (int, float))
                        else enumerate(values))
            for node, raw in readings:
                track = series.track(node)
                if counter:
                    prev = track.last_raw or 0.0
                    track.last_raw = raw
                    # A smaller reading is a reset (a replaced
                    # accumulator): the fresh value is the delta.
                    value = raw - prev if raw >= prev else raw
                else:
                    track.last_raw = raw
                    value = raw
                track.hist.add(value)
                track.stat.add(value)
                ssum += value
                if value > smax:
                    smax = value
                    argmax = node if node is not None else -1
            if smax == -math.inf:            # no node read
                smax = 0.0
            if keep:
                series.sum_arr.append(ssum)
                series.max_arr.append(smax)
                series.argmax_arr.append(argmax)
                if self.tracer is not None:
                    self.tracer.record(t, "ts.sample", metric=metric,
                                       node=argmax, value=smax)
        if keep and len(self.times) >= self.max_samples:
            self._decimate()

    def _sample_timelines(self, t: float, keep: bool) -> None:
        for timeline in self._timelines.values():
            cur = list(timeline.fn())
            last = timeline.last or [0.0] * len(cur)
            timeline.last = cur
            # The runner's timed-section reset replaces each rank's
            # buckets: the counter reset rule applies per index.
            delta = [c - p if c >= p else c for c, p in zip(cur, last)]
            if timeline.pending is not None:
                delta = [a + b for a, b in zip(timeline.pending, delta)]
            timeline.pending = None if keep else delta
            if keep:
                timeline.rows.append(delta)
        if keep:
            self._row_t1.append(t)

    def _decimate(self) -> None:
        """Drop every second kept sample and double the keep stride:
        the series always spans the whole run at bounded memory.
        Timeline rows merge pairwise instead, so they keep summing to
        the whole run."""
        self.times = self.times[::2]
        for series in self._series.values():
            series.sum_arr = series.sum_arr[::2]
            series.max_arr = series.max_arr[::2]
            series.argmax_arr = series.argmax_arr[::2]
        if self._timelines:
            odd = len(self._row_t1) % 2
            self._row_t1 = (self._row_t1[1::2]
                            + self._row_t1[len(self._row_t1) - odd:])
            for timeline in self._timelines.values():
                rows = timeline.rows
                merged = [[a + b for a, b in zip(rows[i], rows[i + 1])]
                          for i in range(0, len(rows) - 1, 2)]
                timeline.rows = merged + rows[len(rows) - odd:]
        self._stride *= 2

    # --------------------------------------------------------- reductions

    @staticmethod
    def _rank_value(series: _Series, track: _NodeTrack) -> float:
        """What a node is ranked by: counters by total accumulation,
        gauges by time-averaged level."""
        if series.kind == "counter":
            return track.stat.total
        return track.stat.mean

    def _per_node(self, series: _Series) -> List[Tuple[int, float]]:
        return sorted(
            ((node, self._rank_value(series, track))
             for node, track in series.tracks.items()
             if node is not None),
            key=lambda kv: (-kv[1], kv[0]))

    def top_nodes(self, metric: str,
                  k: Optional[int] = None) -> List[Tuple[int, float]]:
        """The k hottest nodes of ``metric`` as (node, value), ranked
        by total (counters) or mean level (gauges)."""
        series = self._series[metric]
        return self._per_node(series)[:k if k is not None else self.top_k]

    def skew(self, metric: str) -> dict:
        """Max/median skew across nodes: the one-line hot-shard
        detector.  ``ratio`` is None when the median is zero (a single
        active node among idle ones — maximal skew)."""
        values = sorted(v for _, v in self._per_node(
            self._series[metric]))
        if not values:
            return {"max": 0.0, "median": 0.0, "ratio": None}
        n = len(values)
        median = (values[n // 2] if n % 2
                  else (values[n // 2 - 1] + values[n // 2]) / 2.0)
        peak = values[-1]
        ratio = peak / median if median > 0 else None
        return {"max": peak, "median": median, "ratio": ratio}

    def merged_hist(self, metric: str) -> LogHistogram:
        """All nodes' histograms folded into one."""
        out = LogHistogram()
        for track in self._series[metric].tracks.values():
            out.merge(track.hist)
        return out

    def series(self, metric: str
               ) -> Tuple[List[float], List[float], List[float],
                          List[int]]:
        """The kept columnar series of ``metric``:
        ``(times, sums, maxima, argmax_nodes)``."""
        s = self._series[metric]
        return (list(self.times), list(s.sum_arr), list(s.max_arr),
                list(s.argmax_arr))

    def timeline(self, metric: str
                 ) -> List[Tuple[float, float, List[float]]]:
        """A timeline probe's kept rows as ``(t0, t1, deltas)``,
        deltas indexed like the probe's values.  A reading below the
        previous one counts as a reset: the fresh value is the delta."""
        rows = []
        t0 = self._t_attach
        for t1, row in zip(self._row_t1, self._timelines[metric].rows):
            rows.append((t0, t1, row))
            t0 = t1
        return rows

    def timeline_change(self, metric: str) -> List[float]:
        """Per index: the probe's reading now minus its reading at
        attach (a window total, not a sum of row deltas)."""
        timeline = self._timelines[metric]
        return [c - b for c, b in zip(timeline.fn(), timeline.base)]

    def _rollup(self, series: _Series) -> dict:
        stat = RunningStat()
        peak = 0.0
        peak_node = -1
        for node, track in sorted(
                series.tracks.items(),
                key=lambda kv: (kv[0] is None, kv[0])):
            stat = stat.merge(track.stat)
            if track.stat.count and track.stat.max > peak:
                peak = track.stat.max
                peak_node = node if node is not None else -1
        nodes = sum(1 for n in series.tracks if n is not None)
        return {
            "nodes": nodes,
            "count": stat.count,
            "mean": stat.mean,
            "stdev": stat.stdev,
            "peak": peak,
            "peak_node": peak_node,
        }

    # ----------------------------------------------------------- summary

    @property
    def window_us(self) -> Tuple[float, float]:
        """The sampled window ``(t0, t1)`` in simulated microseconds:
        attach to :meth:`finalize` (to now while still attached;
        ``(0.0, 0.0)`` before attach)."""
        if self._t_final is not None:
            return self._t_attach, self._t_final
        return (self._t_attach,
                self.sim.now if self.sim is not None else 0.0)

    def summary(self) -> dict:
        """Everything JSON-serializable: per-metric rollups, top-k hot
        nodes, skew, and the merged log-bucketed histogram.  This is
        what lands in ``RunResult.telemetry`` and the run cache, so it
        must round-trip losslessly through ``json.dumps``/``loads``."""
        t0, t1 = self.window_us
        metrics = {}
        for metric, series in self._series.items():
            entry = {
                "kind": series.kind,
                "agg": self._rollup(series),
                "hist": self.merged_hist(metric).to_dict(),
            }
            if any(n is not None for n in series.tracks):
                entry["top"] = [[node, value] for node, value
                                in self.top_nodes(metric)]
                entry["skew"] = self.skew(metric)
            metrics[metric] = entry
        return {
            "schema": TS_SCHEMA,
            "cadence_us": self.cadence_us,
            "stride": self._stride,
            "samples": len(self.times),
            "t0_us": t0,
            "t1_us": t1,
            "metrics": metrics,
        }

    # ---------------------------------------------------------- perfetto

    def merge_chrome_trace(self, trace_events: List[dict]) -> List[dict]:
        """Chrome-trace events plus the kept series as Perfetto counter
        tracks: one ``ph: "C"`` track per metric carrying the per-slice
        ``max`` and ``sum``, under a dedicated ``telemetry`` process so
        counters render beside (not inside) the span rows from
        :meth:`repro.sim.Tracer.to_chrome_trace`."""
        pid = 99  # the telemetry process, apart from the trace's pid 1
        events = list(trace_events)
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "tid": 0, "args": {"name": "telemetry"}})
        for metric, s in self._series.items():
            for i, t in enumerate(self.times):
                events.append({
                    "name": metric, "ph": "C", "ts": t, "pid": pid,
                    "args": {"max": s.max_arr[i], "sum": s.sum_arr[i]},
                })
        return events


def telemetry_brief(summary: Optional[dict]) -> Optional[dict]:
    """The one-line telemetry digest carried by ``repro scale`` rows:
    peak NI queue depth plus the queue-depth and page-fault skew
    ratios.  None in, None out (unsampled cells)."""
    if not summary:
        return None
    metrics = summary.get("metrics", {})
    queue = metrics.get("ni.queue_depth", {})
    faults = metrics.get("svm.page_faults", {})
    return {
        "peak_queue_depth": queue.get("agg", {}).get("peak", 0.0),
        "queue_skew": queue.get("skew", {}).get("ratio"),
        "fault_skew": faults.get("skew", {}).get("ratio"),
        "samples": summary.get("samples", 0),
    }
