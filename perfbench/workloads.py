"""The benchmark's workloads: fixed operation lists over public repro APIs.

A workload turns its ``spec.json`` entry into passes.  Each pass is a
list of ``(name, thunk)`` operations; a thunk performs one operation
and returns an :class:`Outcome`.  Everything that checks an outcome
(digests against the pin table, Figure 2/3 rows, sanitizer findings)
runs off the clock, in :meth:`Workload.end_pass`.

Importing this module imports ``repro``; ``run.py`` puts the
checkout's ``src`` directory on ``sys.path`` first.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.analysis import sanitize_run
from repro.apps import APP_REGISTRY
from repro.experiments import (ExperimentCache, collect_critpath,
                               collect_profile, compute_figure2,
                               compute_figure3, render_figure2,
                               render_figure3, scale_params)
from repro.hw import FaultConfig, MachineConfig
from repro.obs import TimeSeriesSampler
from repro.runtime import ResultStore, run_svm
from repro.runtime.parallel import encode_result
from repro.svm import PROTOCOL_LADDER

RUNGS = {feats.name: feats for feats in PROTOCOL_LADDER}


def digest(value) -> str:
    """Short content hash of a JSON-safe value (floats by repr, so a
    digest changes exactly when some simulated number does)."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class Outcome:
    """What one operation produced."""

    #: builds the JSON-safe canonical result hashed against the pin
    #: table; called off the clock.
    canonical: Callable[[], object]
    #: RunResults this operation simulated (not ones read back from a
    #: store): the source of the per-pass protocol counters.
    computed: list = field(default_factory=list)
    #: why the operation is wrong even if its digest matches.
    problem: Optional[str] = None


Op = Tuple[str, Callable[[], Outcome]]


class Workload:
    """One named workload; subclasses supply the operations."""

    def __init__(self, name: str, entry: dict, spec: dict, pins: dict,
                 seed: int, scratch: Path, root: Path):
        self.name = name
        self.entry = entry
        self.spec = spec
        self.seed = seed
        self.scratch = scratch
        self.root = root
        self.pins = self.pin_table(pins)
        #: digests seen on the first pass, for operations without a pin.
        self.first_seen: Dict[str, str] = {}

    def pin_table(self, pins: dict) -> Optional[Dict[str, str]]:
        return pins.get(self.name)

    @property
    def pinned(self) -> bool:
        return self.pins is not None

    def first_config(self) -> Optional[MachineConfig]:
        """The machine the first operation builds (setup_s covers it)."""
        return MachineConfig()

    def prepare(self) -> None:
        """Off-the-clock work before the first measured pass."""

    def begin_pass(self) -> List[Op]:
        raise NotImplementedError

    def end_pass(self, outcomes: Dict[str, Outcome]) -> Dict[str, str]:
        """Check one pass's outcomes; return ``{op name: problem}``."""
        problems = {}
        for name, outcome in outcomes.items():
            problem = outcome.problem or self.check_digest(name, outcome)
            if problem:
                problems[name] = problem
        return problems

    def check_digest(self, name: str, outcome: Outcome) -> Optional[str]:
        got = digest(outcome.canonical())
        if self.pins is not None:
            want = self.pins.get(name)
            if want is None:
                return "no pinned digest"
        else:
            want = self.first_seen.setdefault(name, got)
        if got != want:
            return f"digest {got} != pinned {want}"
        return None


# ---------------------------------------------------------------- ladder


def parse_cell(cell: str) -> Tuple[str, str]:
    app, rung = cell.split("/")
    return app, rung


def cell_spec(cache: ExperimentCache, cell: str):
    app, rung = parse_cell(cell)
    if rung == "seq":
        return cache.spec_seq(app)
    return cache.spec_svm(app, RUNGS[rung])


class Ladder(Workload):
    """Figure-2 cells computed cold, one fresh ResultStore per pass."""

    def begin_pass(self) -> List[Op]:
        self.store_dir = Path(tempfile.mkdtemp(prefix="store-",
                                               dir=self.scratch))
        self.cache = ExperimentCache(jobs=1,
                                     store=ResultStore(self.store_dir))
        return [(cell, self._op(cell)) for cell in self.entry["cells"]]

    def _op(self, cell: str) -> Callable[[], Outcome]:
        def run() -> Outcome:
            result = self.cache.cell(cell_spec(self.cache, cell))
            return Outcome(lambda: encode_result(result), computed=[result])
        return run

    def end_pass(self, outcomes):
        problems = super().end_pass(outcomes)
        for app, problem in self.figure_problems().items():
            for cell in self.entry["cells"]:
                if parse_cell(cell)[0] == app and cell in outcomes:
                    problems.setdefault(cell, problem)
        self.cache = None
        shutil.rmtree(self.store_dir, ignore_errors=True)
        return problems

    def figure_problems(self) -> Dict[str, str]:
        """``{app: problem}`` for Figure 2/3 rows that do not match the
        committed ``results/`` files byte for byte.  Only apps whose
        full ladder is in the cell list have rows."""
        apps = self.entry["figure_rows"]
        problems: Dict[str, str] = {}
        try:
            figures = [
                ("figure2.txt", 1,
                 render_figure2(compute_figure2(self.cache, apps=apps))),
                ("figure3.txt", 2,
                 render_figure3(compute_figure3(self.cache, apps=apps))),
            ]
        except Exception as exc:  # a render failure fails every row
            return {app: f"figure render raised {exc!r}" for app in apps}
        for filename, key_cols, rendered in figures:
            reference = (self.root / "results" / filename).read_text()
            for app, problem in compare_rows(reference, rendered,
                                             key_cols).items():
                problems.setdefault(app, f"{filename}: {problem}")
        return problems


def compare_rows(reference: str, rendered: str,
                 key_cols: int) -> Dict[str, str]:
    """Re-pad each rendered row to the reference table's column widths
    and compare it to the reference row with the same key, exactly.

    A subset table pads its columns to its own widest cell, so rows are
    re-padded before comparing; with the reference widths, a row
    matches byte for byte exactly when every cell's text does.
    """
    ref_lines = reference.splitlines()
    new_lines = rendered.splitlines()
    widths = [len(dashes) for dashes in ref_lines[2].split()]
    ref_rows = {tuple(line.split()[:key_cols]): line
                for line in ref_lines[3:]}
    same_head = (new_lines[0] == ref_lines[0]
                 and new_lines[1].split() == ref_lines[1].split())
    problems: Dict[str, str] = {}
    for line in new_lines[3:]:
        cells = line.split()
        key = tuple(cells[:key_cols])
        padded = "  ".join(c.ljust(w) for c, w in zip(cells, widths))
        if not same_head:
            problem = "title or header differs"
        elif ref_rows.get(key) != padded:
            problem = f"row {' '.join(key)} differs"
        else:
            continue
        problems.setdefault(cells[0], problem)
    return problems


# -------------------------------------------------------------- observed


class Observed(Workload):
    """Reference cells under every instrument, invariant checks on."""

    def begin_pass(self) -> List[Op]:
        return [(f"{instrument}:{cell}", self._op(instrument, cell))
                for cell in self.entry["cells"]
                for instrument in self.entry["instruments"]]

    def _op(self, instrument: str, cell: str) -> Callable[[], Outcome]:
        app_name, rung = parse_cell(cell)
        feats = RUNGS[rung]

        def run() -> Outcome:
            app = APP_REGISTRY[app_name]()
            if instrument == "profile":
                profile = collect_profile(app, feats, check=True)
                problem = (None if profile.accounting_ok
                           else "profile time accounting is off")
                return Outcome(profile.to_dict, problem=problem)
            if instrument == "critpath":
                spanned = collect_critpath(app, feats, check=True)
                # Keep the path and result, not the span trace.
                path, result = spanned.path, spanned.result
                return Outcome(lambda: {"path": path.to_dict(),
                                        "result": encode_result(result)},
                               computed=[result])
            if instrument == "sampler":
                result = run_svm(app, feats, telemetry=TimeSeriesSampler())
                return Outcome(lambda: encode_result(result),
                               computed=[result])
            if instrument == "sanitize":
                result, findings = sanitize_run(app, feats)
                problem = (f"sanitizer reported {len(findings)} findings"
                           if findings else None)
                return Outcome(lambda: encode_result(result),
                               computed=[result], problem=problem)
            raise ValueError(f"unknown instrument {instrument!r}")
        return run


# ------------------------------------------------------------ datacenter


def datacenter_cell_name(entry: dict, cell: dict) -> str:
    loss = "off" if cell["loss"] is None else cell["loss"]
    return (f"{entry['app']}/{entry['topology']}/{cell['nodes']}/"
            f"{cell['protocol']}/loss={loss}")


class Datacenter(Workload):
    """Seeded KVStore cells on a fat-tree with packet loss."""

    def pin_table(self, pins: dict) -> Optional[Dict[str, str]]:
        return pins.get(self.name, {}).get(str(self.seed))

    def config(self, cell: dict) -> MachineConfig:
        faults = (None if cell["loss"] is None
                  else FaultConfig(loss=cell["loss"], seed=self.seed))
        return MachineConfig(nodes=cell["nodes"], procs_per_node=1,
                             topology=self.entry["topology"], faults=faults)

    def first_config(self) -> MachineConfig:
        return self.config(self.entry["cells"][0])

    def begin_pass(self) -> List[Op]:
        return [(datacenter_cell_name(self.entry, cell), self._op(cell))
                for cell in self.entry["cells"]]

    def _op(self, cell: dict) -> Callable[[], Outcome]:
        config = self.config(cell)
        app_name = self.entry["app"]
        params = scale_params(app_name, config.total_procs, seed=self.seed)

        def run() -> Outcome:
            result = run_svm(APP_REGISTRY[app_name](**params),
                             RUNGS[cell["protocol"]], config=config)
            return Outcome(lambda: encode_result(result), computed=[result])
        return run


# ------------------------------------------------------------------ warm


class Warm(Workload):
    """The ladder grid read back from a store filled before timing."""

    def pin_table(self, pins: dict) -> Optional[Dict[str, str]]:
        return pins.get(self.entry["cells_from"])

    @property
    def cells(self) -> List[str]:
        return self.spec["workloads"][self.entry["cells_from"]]["cells"]

    def first_config(self) -> Optional[MachineConfig]:
        return None  # a warm read builds no machine

    def prepare(self) -> None:
        """Fill the store in a child process, so the measuring
        process's peak memory is the warm path's alone."""
        self.store_dir = Path(tempfile.mkdtemp(prefix="warm-",
                                               dir=self.scratch))
        child = Path(__file__).with_name("child.py")
        subprocess.run([sys.executable, str(child), "fill",
                        str(self.store_dir)] + self.cells,
                       check=True, timeout=170, stdout=subprocess.DEVNULL)
        self.store = ResultStore(self.store_dir)

    def begin_pass(self) -> List[Op]:
        # A fresh cache per pass, like a fresh `repro figure 2` process.
        self.cache = ExperimentCache(jobs=1, store=self.store)
        return [(cell, self._op(cell)) for cell in self.cells]

    def _op(self, cell: str) -> Callable[[], Outcome]:
        def run() -> Outcome:
            result = self.cache.cell(cell_spec(self.cache, cell))
            return Outcome(lambda: encode_result(result))
        return run


def fill_store(store_dir: str, cells: List[str]) -> None:
    """Compute ``cells`` into the store at ``store_dir`` (jobs=1)."""
    cache = ExperimentCache(jobs=1, store=ResultStore(store_dir))
    for cell in cells:
        cache.cell(cell_spec(cache, cell))


KINDS = {"cell": Ladder, "instrument": Observed,
         "datacenter": Datacenter, "warm": Warm}


def build(name: str, spec: dict, pins: dict, seed: int, scratch: Path,
          root: Path) -> Workload:
    entry = spec["workloads"][name]
    return KINDS[entry["kind"]](name, entry, spec, pins, seed, scratch,
                                root)
