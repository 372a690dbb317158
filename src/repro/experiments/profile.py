"""The ``repro profile`` experiment: profiled runs across variants.

One :func:`collect_profile` call runs an application under one
protocol variant with the Figure-3 phase set on a
:class:`~repro.obs.TimeSeriesSampler` and returns the JSON-ready
:class:`~repro.obs.Profile`.  :func:`collect_profiles_grid` sweeps a
list of variants (pass Base first to get the paper's Figure-3
normalization) through an :class:`~repro.experiments.cache.
ExperimentCache`, so variants fan out across the worker pool and land
in the persistent store; cached profiles decode through
:meth:`~repro.obs.Profile.from_payload` and render byte-identically.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence

from ..hw import MachineConfig
from ..obs import (Profile, TimeSeriesSampler, build_profile,
                   probe_phases)
from ..runtime import run_svm

if TYPE_CHECKING:  # an annotation only: cells never run the cache
    from .cache import ExperimentCache

__all__ = ["collect_profile", "collect_profiles_grid"]


def collect_profile(app, features, config: Optional[MachineConfig] = None,
                    slice_us: float = 1000.0, check: bool = False) -> Profile:
    """Run ``app`` under ``features`` with profiling; return the profile.

    ``check`` additionally installs the runtime invariant checker, so a
    time-accounting violation raises at the offending rank instead of
    only flagging the profile.
    """
    sampler = TimeSeriesSampler(cadence_us=slice_us)
    probe_phases(sampler)
    result = run_svm(app, features, config=config, check=check,
                     telemetry=sampler)
    return build_profile(sampler, result)


def collect_profiles_grid(app_name: str, variants: Sequence,
                          cache: ExperimentCache,
                          config: Optional[MachineConfig] = None,
                          slice_us: float = 1000.0,
                          check: bool = False,
                          params: Optional[dict] = None) -> List[Profile]:
    """Profile ``app_name`` under each variant via the grid executor.

    Profiles come back in ``variants`` order whatever the pool's
    completion order; with a store attached they persist like any
    other cell.
    """
    specs = [cache.spec_profile(app_name, feats, config=config,
                                slice_us=slice_us, check=check,
                                **(params or {}))
             for feats in variants]
    return list(cache.run(dict(enumerate(specs))).values())
