"""The cache entry point: lists the fingerprint, imports lazily."""

from ..sim.engine import run

FINGERPRINT_MODULES = (
    "__init__.py",          # parent package of every module below
    "hub/__init__.py", "hub/fast.py",
    "hub/slow.py",          # FPR002: no cell can import it
    "render/__init__.py",   # parent package of render.tables
    "runtime/__init__.py", "runtime/cachegrid.py",
    "sim/__init__.py", "sim/engine.py",
    "sim/ghost.py",         # FPR002: no such module
)


def evaluate_cell(cell):
    from .. import fast                     # a hub export of a hub export
    from ..render.tables import render      # lazy, not listed
    return render(fast(run(cell)))
