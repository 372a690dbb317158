"""The ``repro critpath`` experiment: spanned runs -> critical paths.

One :func:`collect_critpath` call runs an application under one
protocol variant with causal span recording armed (``spans=True``)
and returns the run and its critical path;
:func:`collect_critpaths_grid` sweeps a list of variants through the
run cache (pass Base first so the ladder diff normalizes the way the
paper does).

The run's tracer is a :class:`~repro.analysis.critpath.CriticalPathFold`,
which indexes each ``span.*`` row as the run records it, so by default
no row is stored.  A caller that reads more of the trace (Perfetto's
instant events, the sanitizer's protocol checks) passes its own
tracer; the fold forwards every row to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..analysis.critpath import CriticalPathFold, extract_critical_path
from ..hw import MachineConfig
from ..runtime import run_svm
from ..sim import Tracer

__all__ = ["CritpathRun", "collect_critpath", "collect_critpaths_grid"]


@dataclass
class CritpathRun:
    """One spanned run: its result, critical path and trace.

    ``tracer`` is the caller's tracer, or ``None`` when the caller
    passed none (no row was stored) or the run was decoded from the
    persistent store, which keeps only the path and the result.
    Perfetto export and the offline sanitizer need a live run recorded
    into a tracer.
    """

    variant: str   #: protocol variant name ("Base", "GeNIMA", ...)
    result: object     #: the :class:`~repro.runtime.results.RunResult`
    path: object       #: the :class:`~repro.analysis.CriticalPath`
    tracer: Optional[Tracer]  #: the caller's trace, or None


def collect_critpath(app, features,
                     config: Optional[MachineConfig] = None,
                     check: bool = False,
                     tracer: Optional[Tracer] = None) -> CritpathRun:
    """Run ``app`` under ``features`` with spans; extract the path.

    ``check`` additionally installs the runtime invariant checker.
    The run records into a :class:`CriticalPathFold`, which indexes
    each span row as it is recorded; with a ``tracer`` it also
    forwards every row there, so the path is the same either way.
    """
    fold = CriticalPathFold(tracer)
    result = run_svm(app, features, config=config, tracer=fold,
                     check=check, spans=True)
    return CritpathRun(variant=features.name, result=result,
                       path=extract_critical_path(fold), tracer=tracer)


def collect_critpaths_grid(app_name: str, variants: Sequence, cache,
                           config: Optional[MachineConfig] = None,
                           check: bool = False,
                           params: Optional[dict] = None
                           ) -> List[CritpathRun]:
    """The variant sweep via the grid executor (see
    :func:`repro.experiments.profile.collect_profiles_grid`).

    Returned runs carry ``tracer=None`` even on a cache miss — every
    evaluation path must yield the same object, and the store keeps
    only path + result.  Callers that need the span stream (Perfetto,
    ``--check``) must call :func:`collect_critpath` per variant.
    """
    specs = [cache.spec_critpath(app_name, feats, config=config,
                                 check=check, **(params or {}))
             for feats in variants]
    return list(cache.run(dict(enumerate(specs))).values())
