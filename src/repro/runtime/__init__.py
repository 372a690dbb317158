"""Runtime: app-facing parallel API, backends, run driver, results,
and the parallel grid executor + persistent run cache."""

from .backends import LocalBackend, SVMBackend
from .context import Backend, ParallelContext
from .parallel import (CellSpec, GridExecutor, ResultStore, canonical,
                       canonical_json, code_fingerprint)
from .results import RunResult, speedup
from .runner import run_hwdsm, run_on_backend, run_sequential, run_svm

__all__ = [
    "Backend",
    "ParallelContext",
    "LocalBackend",
    "SVMBackend",
    "RunResult",
    "speedup",
    "run_hwdsm",
    "run_on_backend",
    "run_sequential",
    "run_svm",
    "CellSpec",
    "GridExecutor",
    "ResultStore",
    "canonical",
    "canonical_json",
    "code_fingerprint",
]
