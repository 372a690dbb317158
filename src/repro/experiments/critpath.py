"""The ``repro critpath`` experiment: spanned runs -> critical paths.

One :func:`collect_critpath` call runs an application under one
protocol variant with causal span recording armed (``spans=True``),
extracts the critical path offline
(:func:`repro.analysis.extract_critical_path`) and returns the run,
the path and the tracer; :func:`collect_critpaths_grid` sweeps a list
of variants through the run cache (pass Base first so the ladder diff
normalizes the way the paper does).

The extractor reads only ``span.*`` rows, so by default the tracer
keeps only those.  A caller that reads more of the trace (Perfetto's
instant events, the sanitizer's protocol checks) passes its own
unfiltered tracer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..analysis import extract_critical_path
from ..hw import MachineConfig
from ..runtime import run_svm
from ..sim import Tracer

__all__ = ["CritpathRun", "collect_critpath", "collect_critpaths_grid"]


@dataclass
class CritpathRun:
    """One spanned run: its result, critical path and trace.

    ``tracer`` is ``None`` when the run was decoded from the persistent
    store: the span stream is not persisted, only the extracted path,
    so Perfetto export and the offline sanitizer need a live run.
    """

    variant: str   #: protocol variant name ("Base", "GeNIMA", ...)
    result: object     #: the :class:`~repro.runtime.results.RunResult`
    path: object       #: the :class:`~repro.analysis.CriticalPath`
    tracer: Optional[Tracer]  #: the run's trace (None for cached runs)


def collect_critpath(app, features,
                     config: Optional[MachineConfig] = None,
                     check: bool = False,
                     tracer: Optional[Tracer] = None) -> CritpathRun:
    """Run ``app`` under ``features`` with spans; extract the path.

    ``check`` additionally installs the runtime invariant checker.
    ``tracer`` defaults to an unbounded span-only one: extraction needs
    the whole span stream, not a ring-buffer suffix, and nothing else.
    The extractor reads the rows once, as ``iter(tracer)`` yields them.
    """
    if tracer is None:
        tracer = Tracer(categories={"span"}, capacity=None)
    result = run_svm(app, features, config=config, tracer=tracer,
                     check=check, spans=True)
    path = extract_critical_path(iter(tracer))
    return CritpathRun(variant=features.name, result=result,
                       path=path, tracer=tracer)


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
