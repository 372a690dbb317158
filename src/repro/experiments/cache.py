"""Shared run cache for experiment drivers.

Figures 1-4 and Tables 1-2 all consume the same 10 apps x 5 protocols
grid (plus sequential and hardware-DSM baselines).  The cache keeps a
per-process ``digest -> RunResult`` map and delegates evaluation to
:class:`repro.runtime.parallel.GridExecutor`, which adds two things:

* **fan-out** — ``jobs > 1`` evaluates missing cells concurrently in a
  spawn worker pool: a driver reads its whole grid in one :meth:`run`
  call instead of faulting cells in one at a time;
* **persistence** — with a :class:`~repro.runtime.parallel.ResultStore`
  attached, results survive the process and are shared across drivers,
  CLI invocations and CI runs, keyed by a content digest that includes
  a fingerprint of the simulator sources.

All keying goes through :func:`repro.runtime.parallel.canonical` via
:class:`~repro.runtime.parallel.CellSpec`: dict- or list-valued app
params canonicalize (sorted, normalized) instead of producing
unhashable or insertion-order-sensitive keys.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, TypeVar

from ..apps import PAPER_APPS
from ..hw import MachineConfig
from ..runtime import RunResult
from ..runtime.parallel import (CellSpec, GridExecutor, ResultStore,
                                code_fingerprint)

__all__ = ["ExperimentCache", "CACHE", "grid_cache", "paper_apps",
           "run_rows"]

K = TypeVar("K")


class ExperimentCache:
    """Lazily-computed ``(kind, app, params, features, config)`` grid.

    ``jobs`` bounds the worker pool used for cache misses (clamped to
    the CPU count); ``store`` (a
    :class:`~repro.runtime.parallel.ResultStore`) makes the cache
    persistent, and single-flights cells across processes sharing it.
    Both default off: one process, memory only.
    """

    def __init__(self, config: Optional[MachineConfig] = None,
                 jobs: int = 1, store: Optional[ResultStore] = None):
        self.config = config or MachineConfig()
        self.executor = GridExecutor(jobs=jobs, store=store)
        self._results: Dict[str, RunResult] = {}

    # ------------------------------------------------------------- specs

    def spec_svm(self, app_name: str, features,
                 nodes: Optional[int] = None,
                 config: Optional[MachineConfig] = None,
                 telemetry_us: Optional[float] = None,
                 **params) -> CellSpec:
        """Cell for one SVM run.  ``config`` overrides the cache's
        machine entirely (fault sweeps); otherwise only ``nodes`` is
        rescaled, and the cache's own machine is shared while the count
        is unchanged (it is frozen).  ``telemetry_us`` attaches a
        TimeSeriesSampler at that cadence (the summary rides the cached
        result)."""
        if config is None:
            config = self.config
            # Another count, or an equal float or bool, is rebuilt and
            # so validated by MachineConfig.
            if nodes is not None and (type(nodes) is not int
                                      or nodes != config.nodes):
                config = config.scaled(nodes=nodes)
        return CellSpec(kind="svm", app=app_name, params=params,
                        features=features, config=config,
                        telemetry_us=telemetry_us)

    def spec_seq(self, app_name: str, **params) -> CellSpec:
        return CellSpec(kind="seq", app=app_name, params=params,
                        config=self.config)

    def spec_origin(self, app_name: str, nprocs: Optional[int] = None,
                    **params) -> CellSpec:
        if nprocs is None:
            nprocs = self.config.total_procs
        elif (not isinstance(nprocs, int) or isinstance(nprocs, bool)
                or nprocs < 1):
            raise ValueError(
                f"nprocs must be an integer >= 1, got {nprocs!r}")
        return CellSpec(kind="origin", app=app_name, params=params,
                        nprocs=nprocs)

    def spec_profile(self, app_name: str, features,
                     config: Optional[MachineConfig] = None,
                     slice_us: float = 1000.0, check: bool = False,
                     **params) -> CellSpec:
        return CellSpec(kind="profile", app=app_name, params=params,
                        features=features, config=config or self.config,
                        slice_us=slice_us, check=check)

    def spec_critpath(self, app_name: str, features,
                      config: Optional[MachineConfig] = None,
                      check: bool = False, **params) -> CellSpec:
        return CellSpec(kind="critpath", app=app_name, params=params,
                        features=features, config=config or self.config,
                        check=check)

    # -------------------------------------------------------- evaluation

    def run(self, cells: Mapping[K, CellSpec]) -> Dict[K, object]:
        """The value of every cell under the caller's own key: a
        :class:`RunResult`, :class:`~repro.obs.Profile` or
        :class:`~repro.experiments.CritpathRun` by the cell's kind.

        Each spec is digested once; the cells not held in memory are
        resolved in one :meth:`GridExecutor.resolve` batch, in
        ``cells`` order.  Equal specs share one evaluation and value.
        """
        fingerprint = code_fingerprint()
        digests = {key: spec.digest(fingerprint)
                   for key, spec in cells.items()}
        pending: Dict[str, CellSpec] = {}
        for key, digest in digests.items():
            if digest not in self._results:
                pending.setdefault(digest, cells[key])
        if pending:
            self._results.update(self.executor.resolve(pending))
        return {key: self._results[digest]
                for key, digest in digests.items()}

    def cell(self, spec: CellSpec):
        """:meth:`run` for one cell."""
        return self.run({None: spec})[None]


def run_rows(cache: ExperimentCache, rows: Sequence[Mapping[str, CellSpec]],
             **shared: CellSpec) -> List[Dict[str, object]]:
    """Each row's values under the row's own names, plus the ``shared``
    cells' values in every row, all read in one
    :meth:`ExperimentCache.run`."""
    runs = cache.run({**shared, **{(i, name): spec
                                   for i, row in enumerate(rows)
                                   for name, spec in row.items()}})
    return [{**{name: runs[name] for name in shared},
             **{name: runs[i, name] for name in row}}
            for i, row in enumerate(rows)]


def grid_cache(cache: Optional[ExperimentCache] = None) -> ExperimentCache:
    """``cache``, or the process-wide :data:`CACHE` (read per call)."""
    return CACHE if cache is None else cache


def paper_apps(apps: Optional[Sequence[str]]) -> List[str]:
    """All ten paper apps for None; an empty ``apps`` is an error."""
    if apps is None:
        return list(PAPER_APPS)
    if not apps:
        raise ValueError("apps must name at least one application "
                         "(None selects all ten paper apps)")
    return list(apps)


#: process-wide cache used by all experiment drivers and benchmarks
#: (in-memory only; the CLI builds persistent, parallel caches from
#: ``--jobs``/``--cache-dir``).
CACHE = ExperimentCache()
