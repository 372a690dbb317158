"""Shared run cache for experiment drivers.

Figures 1-4 and Tables 1-2 all consume the same 10 apps x 5 protocols
grid (plus sequential and hardware-DSM baselines).  The cache keeps a
per-process ``digest -> RunResult`` map and delegates evaluation to
:class:`repro.runtime.parallel.GridExecutor`, which adds two things the
old in-process memo could not:

* **fan-out** — ``jobs > 1`` evaluates missing cells concurrently in a
  spawn worker pool, and :meth:`warm` lets a driver submit its whole
  grid up front instead of faulting cells in one at a time;
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

from typing import Dict, Iterable, Optional

from ..hw import MachineConfig
from ..runtime import RunResult
from ..runtime.parallel import (CellSpec, GridExecutor, ResultStore,
                                code_fingerprint)

__all__ = ["ExperimentCache", "CACHE"]


class ExperimentCache:
    """Lazily-computed ``(kind, app, params, features, config)`` grid.

    ``jobs`` bounds the worker pool used for cache misses (clamped to
    the CPU count unless ``jobs_force``); ``store`` (a
    :class:`~repro.runtime.parallel.ResultStore`) makes the cache
    persistent, and single-flights cells across processes sharing it.
    Both default off, which reproduces the old in-process memo exactly.
    """

    def __init__(self, config: Optional[MachineConfig] = None,
                 jobs: int = 1, store: Optional[ResultStore] = None,
                 jobs_force: bool = False):
        self.config = config or MachineConfig()
        self.executor = GridExecutor(jobs=jobs, store=store,
                                     jobs_force=jobs_force)
        self._results: Dict[str, RunResult] = {}

    # ------------------------------------------------------------- specs

    def spec_svm(self, app_name: str, features,
                 nodes: Optional[int] = None,
                 config: Optional[MachineConfig] = None,
                 telemetry_us: Optional[float] = None,
                 **params) -> CellSpec:
        """Cell for one SVM run.  ``config`` overrides the cache's
        machine entirely (fault sweeps); otherwise only ``nodes`` is
        rescaled.  ``telemetry_us`` attaches a TimeSeriesSampler at
        that cadence (the summary rides the cached result)."""
        if config is None:
            config = self.config.scaled(nodes=nodes or self.config.nodes)
        return CellSpec(kind="svm", app=app_name, params=params,
                        features=features, config=config,
                        telemetry_us=telemetry_us)

    def spec_seq(self, app_name: str, **params) -> CellSpec:
        return CellSpec(kind="seq", app=app_name, params=params,
                        config=self.config)

    def spec_origin(self, app_name: str, nprocs: Optional[int] = None,
                    **params) -> CellSpec:
        return CellSpec(kind="origin", app=app_name, params=params,
                        nprocs=nprocs or self.config.total_procs)

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

    def warm(self, specs: Iterable[CellSpec]) -> None:
        """Evaluate (or load) every missing cell, ``jobs`` at a time.

        Drivers call this with their full grid before reading single
        cells, so misses run concurrently instead of faulting in one
        by one.  Merging is by digest: completion order never reaches
        the results.
        """
        fingerprint = code_fingerprint()
        pending: Dict[str, CellSpec] = {}
        for spec in specs:
            digest = spec.digest(fingerprint)
            if digest not in self._results:
                pending.setdefault(digest, spec)
        if pending:
            self._results.update(self.executor.resolve(pending))

    def cell(self, spec: CellSpec):
        """The value for one cell (evaluating it if needed): a
        :class:`RunResult` for svm/seq/origin cells, a
        :class:`~repro.obs.Profile` or
        :class:`~repro.experiments.CritpathRun` for the others."""
        digest = spec.digest()
        result = self._results.get(digest)
        if result is None:
            result = self.executor.resolve({digest: spec})[digest]
            self._results[digest] = result
        return result

    # ------------------------------------------------- classic accessors

    def svm(self, app_name: str, features,
            nodes: Optional[int] = None, **params) -> RunResult:
        return self.cell(self.spec_svm(app_name, features, nodes=nodes,
                                       **params))

    def seq(self, app_name: str, **params) -> RunResult:
        return self.cell(self.spec_seq(app_name, **params))

    def origin(self, app_name: str, nprocs: Optional[int] = None,
               **params) -> RunResult:
        return self.cell(self.spec_origin(app_name, nprocs=nprocs,
                                          **params))

    def speedup(self, app_name: str, result: RunResult) -> float:
        return self.seq(app_name).time_us / result.time_us


#: process-wide cache used by all experiment drivers and benchmarks
#: (in-memory only; the CLI builds persistent, parallel caches from
#: ``--jobs``/``--cache-dir``).
CACHE = ExperimentCache()
