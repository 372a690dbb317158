"""Whole-program static analyzer: golden fixture findings, inline
suppressions, CLI exit codes, and the self-check that the shipped tree
is clean, its one accepted finding waived inline."""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.static import (ProjectModel, analyze_paths,
                                   analyze_project)

REPO = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).resolve().parent / "static_fixtures"


def run_cli(*argv, cwd=REPO):
    return subprocess.run(
        [sys.executable, "-m", "repro", "lint", *argv],
        cwd=cwd, capture_output=True, text=True,
        env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"})


def findings(pkg, family=None):
    report = analyze_project(FIXTURES / pkg)
    out = report.violations
    if family:
        out = [v for v in out if v.family == family]
    return out


# ------------------------------------------------------------ golden: PROTO


def test_proto_fixture_findings():
    got = {(v.rule, Path(v.path).name) for v in findings("protopkg")}
    assert got == {
        ("PROTO001", "wire.py"),     # evict_req: no fw handler
        ("PROTO002", "nic.py"),      # ghost_op: unreachable handler
        ("PROTO003", "wire.py"),     # drain_req: declared, unregistered
        ("PROTO004", "wire.py"),     # lock_op constructed host-delivered
        ("PROTO005", "wire.py"),     # stats_blob never consumed
    }


def test_proto_messages_name_the_kind():
    by_rule = {v.rule: v.message for v in findings("protopkg")}
    assert "'evict_req'" in by_rule["PROTO001"]
    assert "'ghost_op'" in by_rule["PROTO002"]
    assert "'drain_req'" in by_rule["PROTO003"]
    assert "'lock_op'" in by_rule["PROTO004"]
    assert "'stats_blob'" in by_rule["PROTO005"]


# -------------------------------------------------------------- golden: TRC


def test_trc_fixture_findings():
    got = sorted((v.rule, v.symbol) for v in findings("trcpkg"))
    assert got == [
        ("TRC001", "GuardedEmitter.unknown_category"),
        ("TRC002", "GuardedEmitter.extra_field"),
        ("TRC002", "GuardedEmitter.missing_field"),
        ("TRC002", "GuardedEmitter.misspelled_field"),
        ("TRC003", "GuardedEmitter.unguarded"),
    ]


def test_trc_names_a_misspelled_required_field():
    """A typo of a required field on a non-variadic family is one
    finding naming the missing field, the undeclared one and the near
    match between them."""
    (hit,) = [v for v in findings("trcpkg")
              if v.symbol == "GuardedEmitter.misspelled_field"]
    assert "missing required field(s) dst" in hit.message
    assert "undeclared field(s) dts" in hit.message
    assert "'dts' looks like a misspelling of 'dst'" in hit.message


def test_trc_guard_and_mandatory_are_clean():
    clean = {"GuardedEmitter.ok", "GuardedEmitter.variadic_ok",
             "GuardedEmitter.guarded_direct", "GuardedEmitter._trace",
             "MandatoryEmitter.emit"}
    flagged = {v.symbol for v in findings("trcpkg")}
    assert not (clean & flagged)


_APPEND_EMITTERS = """
class Emitter:
    def __init__(self, sim, tracer=None):
        self.sim = sim
        self.tracer = tracer

    def _trace(self, category, **fields):
        if self.tracer is not None:
            self.tracer.append(self.sim.now, category, fields)

    def literal_ok(self):
        if self.tracer is not None:
            self.tracer.append(self.sim.now, "fault.read",
                               {"rank": 0, "gid": 1})

    def literal_extra(self):
        if self.tracer is not None:
            self.tracer.append(self.sim.now, "fault.read",
                               {"rank": 0, "gid": 1, "gdi": 1})

    def local_ok(self, parent, fields):
        rec = {"sid": 1, "name": "x"}
        if parent is not None:
            rec["extra"] = parent
        rec.update(fields)
        if self.tracer is not None:
            self.tracer.append(self.sim.now, "span.begin", rec)

    def local_misspelled(self, parent):
        rec = {"sid": 1, "name": "x"}
        rec["extar"] = parent
        if self.tracer is not None:
            self.tracer.append(self.sim.now, "span.begin", rec)

    def unguarded(self):
        self.tracer.append(self.sim.now, "fault.read",
                           {"rank": 0, "gid": 1})
"""


def test_trc_checks_dict_taking_append(tmp_path):
    """``tracer.append(t, category, fields)`` sites are checked like
    ``record`` ones: fields from a dict literal or from the literal a
    local was assigned, variadic misspellings, and the None guard."""
    pkg = tmp_path / "apkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "trace_schema.py").write_text(
        (FIXTURES / "trcpkg" / "trace_schema.py").read_text())
    (pkg / "emitters.py").write_text(_APPEND_EMITTERS)
    report = analyze_project(pkg)
    got = sorted((v.rule, v.symbol) for v in report.violations)
    assert got == [
        ("TRC002", "Emitter.literal_extra"),
        ("TRC002", "Emitter.local_misspelled"),
        ("TRC003", "Emitter.unguarded"),
    ]
    by_symbol = {v.symbol: v.message for v in report.violations}
    assert "field(s) gdi" in by_symbol["Emitter.literal_extra"]
    assert "'extar'" in by_symbol["Emitter.local_misspelled"]


# -------------------------------------------------------------- golden: FPR


def test_fpr_fixture_findings():
    found = findings("fprpkg")
    assert sorted((v.rule, Path(v.path).name, v.line) for v in found) == [
        ("FPR001", "tables.py", 1),      # lazy import, not listed
        ("FPR002", "cachegrid.py", 8),   # hub/slow.py: unreachable
        ("FPR002", "cachegrid.py", 12),  # sim/ghost.py: no such file
    ]
    msgs = [v.message for v in sorted(found, key=lambda v: (v.rule, v.line))]
    assert "fprpkg.render.tables" in msgs[0]
    assert "'hub/slow.py'" in msgs[1] and "no cell can import" in msgs[1]
    assert "'sim/ghost.py'" in msgs[2] and "no such module" in msgs[2]


def fprpkg_reachable():
    model = ProjectModel.load(FIXTURES / "fprpkg")
    return model, model.reachable_from("fprpkg.runtime.cachegrid")


def test_fpr_resolves_lazy_hub_names():
    """``from hub import name`` depends on the one module the hub's
    ``__getattr__`` loads for ``name`` (through a hub of hubs too); the
    hub's own lazy imports are no edges of it."""
    model, reachable = fprpkg_reachable()
    assert "fprpkg.hub.fast" in model.modules["fprpkg.runtime.cachegrid"] \
        .imports
    assert "fprpkg.hub.fast" in reachable
    assert "fprpkg.hub.slow" not in reachable
    assert model.modules["fprpkg.hub"].imports == set()
    assert model.modules["fprpkg.hub"].lazy_exports == {
        "fast": ("fprpkg.hub.fast", "fast"),
        "slow": ("fprpkg.hub.slow", "slow")}


def test_fpr_reaches_parent_packages():
    """Importing ``a.b.c`` runs ``a`` and ``a.b`` first."""
    _, reachable = fprpkg_reachable()
    assert {"fprpkg", "fprpkg.hub", "fprpkg.render", "fprpkg.runtime",
            "fprpkg.sim"} <= reachable


def test_fpr_real_tree_has_no_gaps():
    """FINGERPRINT_MODULES is exactly what evaluate_cell can reach."""
    report = analyze_project(REPO / "src" / "repro", package="repro")
    assert [v for v in report.violations if v.family == "FPR"] == []


def test_fpr_ignores_imports_under_type_checking(tmp_path):
    """An import that only type checkers run is no import-graph edge;
    its ``else`` branch and a lazy import still are."""
    pkg = tmp_path / "tcpkg"
    for sub in ("runtime", "drivers"):
        (pkg / sub).mkdir(parents=True)
        (pkg / sub / "__init__.py").write_text("")
    (pkg / "__init__.py").write_text("")
    (pkg / "runtime" / "grid.py").write_text(
        'FINGERPRINT_MODULES = ("__init__.py", "drivers/__init__.py",\n'
        '                       "runtime/__init__.py", "runtime/grid.py")\n'
        "import typing\n"
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    from ..drivers.typed import Typed\n"
        "if typing.TYPE_CHECKING:\n"
        "    from ..drivers import typed_too\n"
        "else:\n"
        "    from ..drivers import fallback\n"
        "def cell():\n"
        "    from ..drivers import lazy\n")
    for mod in ("typed", "typed_too", "fallback", "lazy"):
        (pkg / "drivers" / f"{mod}.py").write_text("class Typed: ...\n")
    report = analyze_project(pkg)
    assert sorted((v.rule, Path(v.path).name)
                  for v in report.violations) == [
        ("FPR001", "fallback.py"), ("FPR001", "lazy.py")]


def test_fingerprint_modules_exist():
    """Every entry is a file, listed once, in sorted order (the order
    the fingerprint hashes them in)."""
    from repro.runtime.parallel import FINGERPRINT_MODULES
    root = REPO / "src" / "repro"
    assert list(FINGERPRINT_MODULES) == sorted(set(FINGERPRINT_MODULES))
    for m in FINGERPRINT_MODULES:
        assert (root / m).is_file(), m


# ------------------------------------------------------------- golden: RACE


def test_race_fixture_findings():
    got = sorted((v.rule, v.symbol) for v in findings("racepkg"))
    assert got == [("RACE001", "Machine.handle"), ("RACE002", "leaky")]


def test_race_allowed_contexts_are_clean():
    flagged = {v.symbol for v in findings("racepkg")}
    assert "Machine.__init__" not in flagged      # construction wiring
    assert "Machine.rebind" not in flagged        # rebinding a reference
    assert "Network.absorb" not in flagged        # own method


# ------------------------------------------------------------- suppressions


def test_noqa_suppresses_exact_rule_and_family(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "mod.py").write_text(
        "import time\n"
        "def a():\n"
        "    return time.time()  # repro: noqa[wall-clock]\n"
        "def b():\n"
        "    return time.time()  # repro: noqa[WALL-CLOCK]\n"
        "def c():\n"
        "    return time.time()\n")
    report = analyze_project(pkg)
    assert [v.symbol for v in report.violations] == ["c"]
    assert sorted(v.symbol for v in report.suppressed) == ["a", "b"]


def test_noqa_family_prefix_matches_numbered_rules(tmp_path):
    src = FIXTURES / "racepkg" / "proto.py"
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "shared.py").write_text(
        (FIXTURES / "racepkg" / "shared.py").read_text())
    text = src.read_text().replace(
        "self.network.inflight = 0",
        "self.network.inflight = 0  # repro: noqa[RACE]")
    (pkg / "proto.py").write_text(text)
    report = analyze_project(pkg)
    assert [v.rule for v in report.violations] == ["RACE002"]
    assert [v.rule for v in report.suppressed] == ["RACE001"]


# ----------------------------------------------------------------- CLI


def test_cli_clean(tmp_path):
    """Self-check: the shipped tree lints clean from any directory;
    no file outside the package is read."""
    proc = run_cli(cwd=tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "lint clean (10 rules)" in proc.stdout


def test_cli_inline_waiver_keeps_tree_clean(tmp_path):
    """Without its ``noqa`` the home_update broadcast fails the gate:
    the inline waiver is the only thing accepting it."""
    pkg = tmp_path / "repro"
    shutil.copytree(REPO / "src" / "repro", pkg,
                    ignore=shutil.ignore_patterns("__pycache__"))
    protocol = pkg / "svm" / "protocol.py"
    text = protocol.read_text()
    marker = "  # repro: noqa[PROTO005]"
    assert text.count(marker) == 1
    protocol.write_text(text.replace(marker, ""))
    proc = run_cli("--package-root", str(pkg))
    assert proc.returncode == 1, proc.stdout + proc.stderr
    (line,) = [ln for ln in proc.stdout.splitlines() if "[PROTO005]" in ln]
    assert str(Path("svm") / "protocol.py") in line
    assert "'home_update'" in line


def test_cli_fixture_violations_exit_1():
    for pkg in ("protopkg", "trcpkg", "fprpkg", "racepkg"):
        proc = run_cli("--package-root",
                       str(FIXTURES / pkg))
        assert proc.returncode == 1, (pkg, proc.stdout, proc.stderr)
        assert "lint violation" in proc.stdout


def test_cli_parse_error_exit_2(tmp_path):
    pkg = tmp_path / "badpkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "broken.py").write_text("def f(:\n    pass\n")
    proc = run_cli("--package-root", str(pkg))
    assert proc.returncode == 2
    assert "broken.py:1" in proc.stdout
    assert "parse error" in proc.stdout


def test_cli_usage_error_exit_2():
    proc = run_cli("--rule", "no-such-rule")
    assert proc.returncode == 2
    assert "unknown rule" in proc.stdout


def test_cli_paths_mode_is_local_only(tmp_path):
    proc = run_cli(str(FIXTURES / "racepkg"), "--rule", "race")
    assert proc.returncode == 2
    assert "package root" in proc.stdout


def test_cli_list_rules_names_families():
    proc = run_cli("--list-rules")
    assert proc.returncode == 0
    for token in ("wall-clock", "proto", "trc", "fpr", "race",
                  "[PROTO]", "[RACE]"):
        assert token in proc.stdout


def test_cli_lint_tests_and_scripts_clean():
    proc = run_cli("tests", "scripts")
    assert proc.returncode == 0, proc.stdout
    assert "lint clean" in proc.stdout


# ------------------------------------------------------- local rule symbols


def test_local_findings_carry_symbols(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "mod.py").write_text(
        "import time\n"
        "class C:\n"
        "    def m(self):\n"
        "        return time.time()\n")
    report = analyze_project(pkg)
    (v,) = report.violations
    assert v.symbol == "C.m"


def test_analyze_paths_rejects_family_rules():
    with pytest.raises(ValueError):
        analyze_paths([FIXTURES / "racepkg"], rules=["race"])
