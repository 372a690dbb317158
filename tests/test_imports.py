"""Import hygiene: what a fresh interpreter loads, and that the lazy
package exports keep the public API and every registry intact.

Each check runs in a fresh interpreter, because within the suite every
module is already loaded and a missing import edge cannot show.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro

SRC = pathlib.Path(repro.__file__).resolve().parent.parent


def fresh(code: str):
    """Run ``code`` in a new interpreter that imports this checkout;
    returns the JSON value its last stdout line prints."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ------------------------------------------------------------- registries

REGISTRIES = """
import json
{entry}
from repro.analysis.lint import RULES
from repro.analysis.sanitizer import SANITIZER_CHECKS
from repro.analysis.static.registry import PROJECT_RULES
print(json.dumps({{"checks": sorted(SANITIZER_CHECKS),
                  "rules": sorted(RULES),
                  "families": sorted(PROJECT_RULES)}}))
"""


@pytest.fixture(scope="module")
def full_registries():
    """The registries after every export of ``repro.analysis`` loaded."""
    return fresh(REGISTRIES.format(
        entry="import repro.analysis\nfrom repro.analysis import *"))


def test_full_registries_hold_every_builtin(full_registries):
    assert len(full_registries["checks"]) == 8
    assert "critical-path" in full_registries["checks"]
    assert "time-accounting" in full_registries["checks"]
    assert full_registries["families"] == ["fpr", "proto", "race", "trc"]
    # `repro lint` runs the local rules plus one pass per family.
    assert len(full_registries["rules"]) \
        + len(full_registries["families"]) == 10


@pytest.mark.parametrize("entry", [
    "from repro.analysis import sanitize_run",
    "import repro.analysis.sanitizer",
    "import repro.analysis.lint",
    "import repro.analysis.static",
    "import repro.analysis",
])
def test_registries_complete_whatever_the_entry(entry, full_registries):
    assert fresh(REGISTRIES.format(entry=entry)) == full_registries


# --------------------------------------------------------------- layering

LOADED = """
import json, sys
{entry}
print(json.dumps(sorted(m for m in sys.modules if m.startswith("repro"))))
"""


@pytest.mark.parametrize("entry, forbidden", [
    ("import repro.sim",
     ["repro.hw", "repro.svm", "repro.obs", "repro.runtime"]),
    ("import repro.hw",
     ["repro.runtime", "repro.analysis", "repro.experiments",
      "repro.hwdsm", "repro.obs.dash"]),
    ("from repro.analysis import sanitize_run",
     ["repro.analysis.static", "repro.analysis.lint"]),
    ("import repro",
     ["repro.sim", "repro.hw", "repro.runtime"]),
    ("from repro.runtime import run_svm",
     ["repro.obs.profiler", "repro.experiments"]),
], ids=["sim", "hw", "sanitize_run", "repro", "run_svm"])
def test_entry_loads_no_higher_layer(entry, forbidden):
    loaded = fresh(LOADED.format(entry=entry))
    leaks = [m for m in loaded for f in forbidden
             if m == f or m.startswith(f + ".")]
    assert not leaks, f"{entry!r} loaded {leaks}"


# ------------------------------------------------------------- public API

LAZY_HUBS = ["repro", "repro.obs", "repro.runtime", "repro.analysis",
             "repro.experiments"]

API = """
import importlib, json
pkg = importlib.import_module({name!r})
missing = [n for n in pkg.__all__ if not hasattr(pkg, n)]
unlisted = sorted(set(pkg.__all__) - set(dir(pkg)))
star = {{}}
exec("from {name} import *", star)
print(json.dumps({{"missing": missing, "unlisted": unlisted,
                  "star": sorted(set(pkg.__all__) - set(star)),
                  "bogus": hasattr(pkg, "no_such_export")}}))
"""


@pytest.mark.parametrize("name", LAZY_HUBS)
def test_lazy_exports_resolve(name):
    assert fresh(API.format(name=name)) == {
        "missing": [], "unlisted": [], "star": [], "bogus": False}


def test_lazy_export_is_the_defining_object():
    from repro.analysis.sanitizer import sanitize_run
    from repro.experiments.cache import ExperimentCache
    from repro.obs.metrics import MetricsRegistry
    from repro.runtime.runner import run_svm
    import repro.analysis
    import repro.experiments
    import repro.obs
    import repro.runtime
    assert repro.run_svm is run_svm
    assert repro.runtime.run_svm is run_svm
    assert repro.obs.MetricsRegistry is MetricsRegistry
    assert repro.analysis.sanitize_run is sanitize_run
    assert repro.experiments.ExperimentCache is ExperimentCache
