"""Analysis driver: load project, run rule families, apply noqa.

Two entry points:

* :func:`analyze_project` — whole-program analysis of one package
  root: every local (single-file) rule on every module, plus every
  registered :class:`ProjectRule` family.  This is what
  ``repro lint`` runs on ``src/repro``.
* :func:`analyze_paths` — local rules only, over arbitrary files and
  directories (``tests/``, ``scripts/``): cross-module families need
  a package root and do not apply there.

Both honour inline suppressions: a line containing
``# repro: noqa[RULE]`` suppresses findings of that rule on that
line; ``RULE`` may be an exact id (``PROTO001``), a family prefix
(``PROTO``), or a local rule name (``wall-clock``), and several may
be given comma-separated.  Matching is case-insensitive.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from ..lint import RULES, LintViolation, iter_py_files, lint_source
from .project import ProjectModel
from .registry import PROJECT_RULES

__all__ = ["AnalysisReport", "analyze_project", "analyze_paths",
           "available_rule_names"]

_NOQA = re.compile(r"#\s*repro:\s*noqa\[([^\]]+)\]", re.IGNORECASE)


def _sort_key(v: LintViolation) -> Tuple[str, int, int, str]:
    return (v.path, v.line, v.col, v.rule)


@dataclass
class AnalysisReport:
    """Outcome of one analysis run, after suppression filtering."""

    violations: List[LintViolation] = field(default_factory=list)
    suppressed: List[LintViolation] = field(default_factory=list)
    syntax_errors: List[LintViolation] = field(default_factory=list)

    def sorted(self) -> "AnalysisReport":
        return AnalysisReport(
            violations=sorted(self.violations, key=_sort_key),
            suppressed=sorted(self.suppressed, key=_sort_key),
            syntax_errors=sorted(self.syntax_errors, key=_sort_key))


def _noqa_rules(line: str) -> Optional[List[str]]:
    match = _NOQA.search(line)
    if match is None:
        return None
    return [part.strip().lower()
            for part in match.group(1).split(",") if part.strip()]


def _is_suppressed(v: LintViolation, names: List[str]) -> bool:
    rule = v.rule.lower()
    fam = v.family.lower()
    return any(n == rule or n == fam for n in names)


def _apply_suppressions(violations: List[LintViolation],
                        sources: Dict[str, List[str]]
                        ) -> Tuple[List[LintViolation],
                                   List[LintViolation]]:
    kept: List[LintViolation] = []
    suppressed: List[LintViolation] = []
    for v in violations:
        lines = sources.get(v.path)
        if lines is None:
            try:
                lines = Path(v.path).read_text(
                    encoding="utf-8").splitlines()
            except OSError:
                lines = []
            sources[v.path] = lines
        names = (_noqa_rules(lines[v.line - 1])
                 if 0 < v.line <= len(lines) else None)
        if names is not None and _is_suppressed(v, names):
            suppressed.append(v)
        else:
            kept.append(v)
    return kept, suppressed


def _split_rule_names(rules: Optional[Sequence[str]]
                      ) -> Tuple[Optional[List[str]],
                                 Optional[List[str]]]:
    """``(local, families)`` — None means "all of that kind"."""
    if rules is None:
        return None, None
    local: List[str] = []
    families: List[str] = []
    for name in rules:
        low = name.lower()
        if low in PROJECT_RULES:
            families.append(low)
        elif low in RULES:
            local.append(low)
        else:
            raise ValueError(
                f"unknown rule {name!r}; known: "
                f"{', '.join(available_rule_names())}")
    return local, families


def available_rule_names() -> List[str]:
    """Every selectable rule name: local rules plus family keys."""
    return sorted(RULES) + sorted(PROJECT_RULES)


def analyze_project(root: Path, package: Optional[str] = None,
                    rules: Optional[Sequence[str]] = None) -> AnalysisReport:
    """Whole-program analysis of the package rooted at ``root``."""
    local, families = _split_rule_names(rules)
    model = ProjectModel.load(root, package=package)
    report = AnalysisReport(syntax_errors=list(model.syntax_errors))
    sources: Dict[str, List[str]] = {}

    violations: List[LintViolation] = []
    local_names = local if local is not None else sorted(RULES)
    if local is None or local:
        for info in model.modules.values():
            sources[str(info.path)] = info.source.splitlines()
            for name in local_names:
                for v in RULES[name]().check(info.tree, str(info.path)):
                    violations.append(LintViolation(
                        path=v.path, line=v.line, col=v.col,
                        rule=v.rule, message=v.message,
                        symbol=info.symbol_at(v.line)))
    family_names = (families if families is not None
                    else sorted(PROJECT_RULES))
    for name in family_names:
        violations.extend(PROJECT_RULES[name]().check(model))

    kept, suppressed = _apply_suppressions(violations, sources)
    report.violations = kept
    report.suppressed = suppressed
    return report.sorted()


def analyze_paths(paths: Sequence[Path],
                  rules: Optional[Sequence[str]] = None
                  ) -> AnalysisReport:
    """Local rules over arbitrary files/dirs (no project model)."""
    local, families = _split_rule_names(rules)
    if families:
        raise ValueError(
            f"cross-module rule families ({', '.join(families)}) "
            f"need a package root; they do not apply to loose paths")
    report = AnalysisReport()
    sources: Dict[str, List[str]] = {}
    violations: List[LintViolation] = []
    for path in iter_py_files(paths):
        source = path.read_text(encoding="utf-8")
        sources[str(path)] = source.splitlines()
        for v in lint_source(source, path=str(path), rules=local):
            if v.rule == "syntax":
                report.syntax_errors.append(v)
            else:
                violations.append(v)
    kept, suppressed = _apply_suppressions(violations, sources)
    report.violations = kept
    report.suppressed = suppressed
    return report.sorted()
