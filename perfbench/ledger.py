"""Per-layer measurements for the traced run.

Two instruments, used in separate passes so neither skews the other:

* :class:`Instruments` wraps a few coarse public functions with timers
  and counters (a handful of calls per operation, so the pass it
  instruments stays representative of an untraced one);
* :func:`profile_layers` folds a ``cProfile`` run into per-layer self
  time by module path, charging builtin and standard-library time to
  the repro layer that called it.
"""

from __future__ import annotations

import pstats
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Dict, List, Optional

import repro
import repro.experiments.critpath
import repro.runtime.parallel
from repro.analysis import Sanitizer
from repro.apps import APP_REGISTRY
from repro.hw import Machine
from repro.runtime import CellSpec, ResultStore
from repro.sim import Tracer
from repro.sim.engine import Simulator

PACKAGE_ROOT = Path(repro.__file__).resolve().parent

#: timer key -> (owner, attribute) of the wrapped callable.
TIMED = {
    "hw.build": (Machine, "__init__"),
    "analysis.critpath": (repro.experiments.critpath,
                          "extract_critical_path"),
    "analysis.sanitize": (Sanitizer, "run"),
    "runtime.store_write": (ResultStore, "store"),
    "runtime.digest": (CellSpec, "digest"),
    "runtime.decode": (repro.runtime.parallel, "decode_payload"),
}


class Instruments:
    """Timers and counters around public functions, for one pass.

    ``timers[key]`` is ``[calls, seconds]`` over outermost calls only
    (an ``Application.setup`` calling its base class's is one call).
    ``counts`` holds dispatched engine events, store hits and misses,
    and trace records.
    """

    def __init__(self):
        self.timers: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
        self.counts: Counter = Counter()
        self._depth: Counter = Counter()
        self._undo: list = []
        self._tracers: list = []

    def install(self) -> None:
        for key, (owner, attr) in TIMED.items():
            self._wrap(owner, attr, key)
        self._wrap(ResultStore, "load", "runtime.store_load",
                   on_result=self._count_load)
        seen = set()
        for cls in APP_REGISTRY.values():
            for klass in cls.__mro__:
                fn = klass.__dict__.get("setup")
                if fn is not None and fn not in seen:
                    seen.add(fn)
                    self._wrap(klass, "setup", "apps.setup")
        self._patch(Simulator, "run", self._counting_run)
        self._patch(Tracer, "__init__", self._registering_init)

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def end_op(self) -> None:
        """Fold the records of tracers built during the operation."""
        for tracer in self._tracers:
            self.counts["trace_records"] += sum(tracer.counts().values())
        self._tracers.clear()

    def mean_ms(self, key: str) -> float:
        calls, seconds = self.timers[key]
        return seconds * 1e3 / calls if calls else 0.0

    # ------------------------------------------------------------ wrapping

    def _patch(self, owner, attr: str, make) -> None:
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def _wrap(self, owner, attr: str, key: str, on_result=None) -> None:
        timer = self.timers[key]
        depth = self._depth

        def make(original):
            def timed(*args, **kwargs):
                depth[key] += 1
                start = time.perf_counter()
                try:
                    out = original(*args, **kwargs)
                finally:
                    depth[key] -= 1
                    if not depth[key]:
                        timer[0] += 1
                        timer[1] += time.perf_counter() - start
                if on_result is not None:
                    on_result(out)
                return out
            return timed
        self._patch(owner, attr, make)

    def _count_load(self, envelope) -> None:
        self.counts["store_misses" if envelope is None
                    else "store_hits"] += 1

    def _counting_run(self, original):
        counts = self.counts

        def run(sim, *args, **kwargs):
            before = sim.events_dispatched
            try:
                return original(sim, *args, **kwargs)
            finally:
                counts["events"] += sim.events_dispatched - before
        return run

    def _registering_init(self, original):
        tracers = self._tracers

        def init(tracer, *args, **kwargs):
            original(tracer, *args, **kwargs)
            tracers.append(tracer)
        return init


# ------------------------------------------------------------- profiling


def layer_map(spec_layers: Dict[str, List[str]]):
    """``filename -> layer or None`` (None: not a repro source file)."""
    prefixes = sorted(((p, layer) for layer, paths in spec_layers.items()
                       for p in paths), key=lambda pl: -len(pl[0]))
    memo: Dict[str, Optional[str]] = {}

    def layer_of(filename: str) -> Optional[str]:
        if filename not in memo:
            try:
                rel = Path(filename).resolve().relative_to(PACKAGE_ROOT)
            except (ValueError, OSError):
                memo[filename] = None
            else:
                memo[filename] = next(
                    (layer for p, layer in prefixes
                     if rel.as_posix().startswith(p)), "other")
        return memo[filename]
    return layer_of


def profile_layers(profile, spec_layers) -> Dict[str, float]:
    """Self seconds per layer from a ``cProfile.Profile``.

    Repro functions are charged by file.  Any other function (a builtin
    or the standard library) is split across its callers by the self
    time each call edge carried; a caller that is itself not repro code
    passes its share up by the cumulative time of its own call edges.
    What reaches no repro function is ``other``.
    """
    stats = pstats.Stats(profile).stats
    layer_of = layer_map(spec_layers)
    shares: Dict[tuple, Dict[str, float]] = {}

    def share_of(func, column: int, active: set) -> Dict[str, float]:
        layer = layer_of(func[0])
        if layer is not None:
            return {layer: 1.0}
        if column == 3 and func in shares:
            return shares[func]
        callers = stats[func][4] if func in stats else {}
        total = sum(edge[column] for edge in callers.values())
        if func in active or total <= 0:
            return {"other": 1.0}
        active.add(func)
        out: Counter = Counter()
        for caller, edge in callers.items():
            for lay, part in share_of(caller, 3, active).items():
                out[lay] += part * edge[column] / total
        active.discard(func)
        if column == 3:
            shares[func] = dict(out)
        return dict(out)

    self_s: Counter = Counter({layer: 0.0 for layer in spec_layers})
    for func, (_cc, _nc, tt, _ct, _callers) in stats.items():
        for layer, part in share_of(func, 2, set()).items():
            self_s[layer] += tt * part
    return dict(self_s)
