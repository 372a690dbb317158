"""Whole-program static analysis (cross-module rule families).

Importing this package loads the project model, the rule registry,
and registers the four built-in families: PROTO (protocol flow), TRC
(trace schema), FPR (cache-fingerprint coverage), RACE (shared-state
mutation).
"""

from .driver import (
    AnalysisReport,
    analyze_paths,
    analyze_project,
    available_rule_names,
)
from .project import ModuleInfo, ProjectModel
from .registry import PROJECT_RULES, ProjectRule, register_project_rule

# importing the family modules registers their rules
from . import fpr as _fpr  # noqa: F401
from . import proto as _proto  # noqa: F401
from . import race as _race  # noqa: F401
from . import trc as _trc  # noqa: F401

__all__ = [
    "AnalysisReport",
    "ModuleInfo",
    "PROJECT_RULES",
    "ProjectModel",
    "ProjectRule",
    "analyze_paths",
    "analyze_project",
    "available_rule_names",
    "register_project_rule",
]
