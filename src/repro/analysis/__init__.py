"""Protocol analysis: trace sanitizer, invariant checker, static lint.

Three cooperating passes that keep the simulator honest:

* :mod:`repro.analysis.sanitizer` — offline race/coherence sanitizer
  replaying recorded traces against a happens-before graph
  (:mod:`repro.analysis.hb`).
* :mod:`repro.analysis.invariants` — runtime predicates the protocol
  asserts at its own commit points (``--check`` / ``repro check``).
* :mod:`repro.analysis.lint` — static AST lint enforcing the
  determinism rules the other two passes depend on (``repro lint``).
* :mod:`repro.analysis.static` — whole-program analysis over the
  package import graph: protocol send/handler agreement (PROTO),
  trace-schema conformance (TRC), cache-fingerprint coverage (FPR)
  and shared-state mutation (RACE); a finding is accepted only by an
  inline ``# repro: noqa[RULE]`` on the line it reports.
* :mod:`repro.analysis.critpath` — critical-path extraction over the
  causal span records of a spanned run (``repro critpath``); the
  sanitizer's ``critical-path`` check reconciles its length against
  wall time.
"""

from typing import Any, List

__all__ = [
    "CriticalPath", "PathStep", "extract_critical_path",
    "render_path", "render_ladder_diff", "bucket_shares",
    "CRITPATH_SCHEMA",
    "ClockHistory", "HBGraph", "IntervalInfo",
    "InvariantChecker", "InvariantViolation", "LEGAL_TRANSITIONS",
    "LintViolation", "Rule", "RULES", "register_rule",
    "lint_source", "default_target",
    "AnalysisReport", "ProjectModel", "ProjectRule",
    "PROJECT_RULES", "register_project_rule",
    "analyze_project", "analyze_paths",
    "Finding", "Sanitizer", "SanitizerCheck", "SANITIZER_CHECKS",
    "register_check", "sanitize_run",
]


def __getattr__(name: str) -> Any:
    # PEP 562: an export loads its module on first use; each branch is
    # a literal import so the static import graph keeps the edge.
    if name in ("CRITPATH_SCHEMA", "CriticalPath", "PathStep",
                "bucket_shares", "extract_critical_path",
                "render_ladder_diff", "render_path"):
        from .critpath import (CRITPATH_SCHEMA, CriticalPath, PathStep,
                               bucket_shares, extract_critical_path,
                               render_ladder_diff, render_path)
    elif name in ("ClockHistory", "HBGraph", "IntervalInfo"):
        from .hb import ClockHistory, HBGraph, IntervalInfo
    elif name in ("LEGAL_TRANSITIONS", "InvariantChecker",
                  "InvariantViolation"):
        from .invariants import (LEGAL_TRANSITIONS, InvariantChecker,
                                 InvariantViolation)
    elif name in ("RULES", "LintViolation", "Rule", "default_target",
                  "lint_source", "register_rule"):
        from .lint import (RULES, LintViolation, Rule, default_target,
                           lint_source, register_rule)
    elif name in ("SANITIZER_CHECKS", "Finding", "Sanitizer",
                  "SanitizerCheck", "register_check", "sanitize_run"):
        from .sanitizer import (SANITIZER_CHECKS, Finding, Sanitizer,
                                SanitizerCheck, register_check, sanitize_run)
    elif name in ("PROJECT_RULES", "AnalysisReport", "ProjectModel",
                  "ProjectRule", "analyze_paths", "analyze_project",
                  "register_project_rule"):
        from .static import (PROJECT_RULES, AnalysisReport, ProjectModel,
                             ProjectRule, analyze_paths, analyze_project,
                             register_project_rule)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    loaded = {key: value for key, value in locals().items() if key != "name"}
    globals().update(loaded)
    return loaded[name]


def __dir__() -> List[str]:
    return sorted(set(globals()) | set(__all__))
