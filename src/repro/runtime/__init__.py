"""Runtime: app-facing parallel API, backends, run driver, results,
and the parallel grid executor + persistent run cache."""

from typing import Any, List

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


def __getattr__(name: str) -> Any:
    # PEP 562: an export loads its module on first use; each branch is
    # a literal import so the static import graph keeps the edge.
    if name in ("LocalBackend", "SVMBackend"):
        from .backends import LocalBackend, SVMBackend
    elif name in ("Backend", "ParallelContext"):
        from .context import Backend, ParallelContext
    elif name in ("CellSpec", "GridExecutor", "ResultStore", "canonical",
                  "canonical_json", "code_fingerprint"):
        from .parallel import (CellSpec, GridExecutor, ResultStore, canonical,
                               canonical_json, code_fingerprint)
    elif name in ("RunResult", "speedup"):
        from .results import RunResult, speedup
    elif name in ("run_hwdsm", "run_on_backend", "run_sequential",
                  "run_svm"):
        from .runner import run_hwdsm, run_on_backend, run_sequential, run_svm
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    loaded = {key: value for key, value in locals().items() if key != "name"}
    globals().update(loaded)
    return loaded[name]


def __dir__() -> List[str]:
    return sorted(set(globals()) | set(__all__))
