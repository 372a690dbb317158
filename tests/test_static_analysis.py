"""Whole-program static analyzer: golden fixture findings, baseline
round-trip, SARIF structure, CLI exit codes, and the self-check that
the shipped tree is clean modulo the committed baseline."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.static import (
    Baseline,
    analyze_paths,
    analyze_project,
    finding_key,
    rule_descriptions,
    to_sarif,
)
from repro.analysis.lint import LintViolation

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
        ("TRC003", "GuardedEmitter.unguarded"),
    ]


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
    got = sorted((v.rule, Path(v.path).name) for v in findings("fprpkg"))
    assert got == [("FPR001", "tables.py"), ("FPR002", "cachegrid.py")]
    msgs = {v.rule: v.message for v in findings("fprpkg")}
    assert "fprpkg.render.tables" in msgs["FPR001"]
    assert "'ghostdir'" in msgs["FPR002"]


def test_fpr_real_tree_has_no_gaps():
    """Every module evaluate_cell can reach is fingerprinted."""
    report = analyze_project(REPO / "src" / "repro", package="repro")
    assert [v for v in report.violations if v.family == "FPR"] == []


def test_fingerprint_modules_exist():
    from repro.runtime.parallel import (FINGERPRINT_DIRS,
                                        FINGERPRINT_MODULES)
    root = REPO / "src" / "repro"
    for d in FINGERPRINT_DIRS:
        assert (root / d).is_dir(), d
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


# ----------------------------------------------------------------- baseline


def _violation(rule="PROTO005", path="svm/protocol.py",
               symbol="X.migrate", line=10):
    return LintViolation(path=path, line=line, col=0, rule=rule,
                         message="m", symbol=symbol)


def test_baseline_split_is_line_tolerant(tmp_path):
    root = tmp_path
    v1 = _violation(line=10)
    baseline = Baseline().updated([v1], root)
    moved = _violation(line=99)        # same rule+path+symbol
    new, accepted = baseline.split([moved], root)
    assert new == [] and accepted == [moved]


def test_baseline_count_budget(tmp_path):
    root = tmp_path
    baseline = Baseline().updated([_violation()], root)
    dup = [_violation(line=1), _violation(line=2)]
    new, accepted = baseline.split(dup, root)
    assert len(accepted) == 1 and len(new) == 1


def test_baseline_add_expire_roundtrip(tmp_path):
    root = tmp_path
    old = Baseline().updated([_violation(), _violation(rule="TRC001",
                                                       symbol="Y.f")],
                             root)
    for entry in old.entries.values():
        entry.justification = "because"
    # TRC001 finding disappears; a RACE001 finding appears.
    current = [_violation(), _violation(rule="RACE001", symbol="Z.g")]
    assert old.stale_keys(current, root) == [
        ("TRC001", "svm/protocol.py", "Y.f")]
    updated = old.updated(current, root)
    keys = sorted(k[0] for k in updated.entries)
    assert keys == ["PROTO005", "RACE001"]
    kept = updated.entries[("PROTO005", "svm/protocol.py", "X.migrate")]
    assert kept.justification == "because"    # survives the rewrite
    fresh = updated.entries[("RACE001", "svm/protocol.py", "Z.g")]
    assert fresh.justification == "TODO"      # needs a human reason
    # dump/load round-trip preserves everything
    path = tmp_path / "bl.json"
    updated.dump(path)
    loaded = Baseline.load(path)
    assert {k: (e.count, e.justification)
            for k, e in loaded.entries.items()} == \
           {k: (e.count, e.justification)
            for k, e in updated.entries.items()}


def test_baseline_rejects_unknown_format(tmp_path):
    path = tmp_path / "bl.json"
    path.write_text(json.dumps({"format": "nope", "findings": []}))
    with pytest.raises(ValueError):
        Baseline.load(path)


# -------------------------------------------------------------------- SARIF


def test_sarif_structure():
    root = FIXTURES / "protopkg"
    report = analyze_project(root)
    new, baselined = report.violations[:3], report.violations[3:]
    sarif = to_sarif(new, baselined, root, rule_descriptions())
    assert sarif["version"] == "2.1.0"
    assert sarif["$schema"].endswith("sarif-schema-2.1.0.json")
    (run,) = sarif["runs"]
    driver = run["tool"]["driver"]
    assert driver["name"] == "repro-lint"
    rule_ids = {r["id"] for r in driver["rules"]}
    results = run["results"]
    assert len(results) == len(new) + len(baselined)
    for result in results:
        assert result["ruleId"] in rule_ids
        (loc,) = result["locations"]
        phys = loc["physicalLocation"]
        assert phys["artifactLocation"]["uriBaseId"] == "SRCROOT"
        assert not Path(phys["artifactLocation"]["uri"]).is_absolute()
        assert phys["region"]["startLine"] >= 1
        assert phys["region"]["startColumn"] >= 1
    suppressed = [r for r in results if "suppressions" in r]
    assert len(suppressed) == len(baselined)
    assert all(s["suppressions"] == [{"kind": "external"}]
               for s in suppressed)
    assert run["originalUriBaseIds"]["SRCROOT"]["uri"].endswith("/")
    json.dumps(sarif)      # fully serializable


# ----------------------------------------------------------------- CLI


def test_cli_clean_modulo_baseline():
    """Self-check: the shipped tree has no findings beyond the
    committed lint-baseline.json."""
    proc = run_cli()
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "lint clean" in proc.stdout
    assert "baselined" in proc.stdout


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


def test_cli_no_baseline_reports_intentional_findings():
    proc = run_cli("--no-baseline")
    assert proc.returncode == 1
    assert "PROTO005" in proc.stdout


def test_cli_update_baseline_roundtrip(tmp_path):
    bl = tmp_path / "bl.json"
    proc = run_cli("--baseline", str(bl), "--update-baseline")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    data = json.loads(bl.read_text())
    assert data["format"] == "repro-lint-baseline/1"
    rules = [f["rule"] for f in data["findings"]]
    assert "PROTO005" in rules
    # with the freshly written baseline the tree is clean
    proc = run_cli("--baseline", str(bl))
    assert proc.returncode == 0
    assert "lint clean" in proc.stdout


def test_cli_sarif_output(tmp_path):
    out = tmp_path / "lint.sarif"
    proc = run_cli("--sarif", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    sarif = json.loads(out.read_text())
    assert sarif["version"] == "2.1.0"
    results = sarif["runs"][0]["results"]
    # the baselined PROTO005 finding is carried as suppressed
    assert any(r.get("suppressions") for r in results)


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
    proc = run_cli("tests", "scripts", "--local-only")
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
    assert finding_key(v, pkg) == ("wall-clock", "mod.py", "C.m")


def test_analyze_paths_rejects_family_rules():
    with pytest.raises(ValueError):
        analyze_paths([FIXTURES / "racepkg"], rules=["race"])
