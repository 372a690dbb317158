"""FPR: the run cache's fingerprint list equals the import graph.

``code_fingerprint()`` (``runtime/parallel.py``) hashes the sources
named in ``FINGERPRINT_MODULES``, and every cached cell is keyed by it.
The list must be exactly the modules reachable from the module that
defines it, over all imports, lazy ones included (see
:class:`~repro.analysis.static.project.ProjectModel`).  Editing a
listed module turns the store cold; editing any other keeps it warm.
To add a module, import it and run ``repro lint``: it names the entry.

* **FPR001** — reachable but not listed: editing the module leaves
  cached results stale.
* **FPR002** — listed but unreachable, or missing: an edit no cell can
  see turns every cached result cold.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional

from ..lint import LintViolation
from .project import ModuleInfo, ProjectModel
from .registry import ProjectRule, register_project_rule

__all__ = ["FprRule"]

_DECL = "FINGERPRINT_MODULES"


def _entries(info: ModuleInfo) -> Optional[Dict[str, ast.Constant]]:
    """Each ``FINGERPRINT_MODULES`` entry's literal, by its value, or
    None when ``info`` does not assign the tuple."""
    for stmt in info.tree.body:
        if isinstance(stmt, ast.Assign) \
                and isinstance(stmt.value, (ast.Tuple, ast.List)) \
                and any(isinstance(t, ast.Name) and t.id == _DECL
                        for t in stmt.targets):
            return {e.value: e for e in stmt.value.elts
                    if isinstance(e, ast.Constant)}
    return None


@register_project_rule
class FprRule(ProjectRule):
    """The fingerprint hashes exactly what the run cache can execute."""

    name = "fpr"
    family = "FPR"
    description = ("the code fingerprint lists exactly the modules "
                   "reachable from the run cache")

    def check(self, project: ProjectModel) -> Iterator[LintViolation]:
        for anchor in project.modules.values():
            entries = _entries(anchor)
            if entries is None:
                continue
            reachable = {project.modules[name].rel: project.modules[name]
                         for name in project.reachable_from(anchor.name)}
            for rel in sorted(set(reachable) - set(entries)):
                info = reachable[rel]
                yield self.hit(
                    info, info.tree.body[0] if info.tree.body else None,
                    "FPR001",
                    f"module {info.name} is reachable from the run cache "
                    f"(via {anchor.name}) but {rel!r} is not in {_DECL}: "
                    f"editing it will NOT invalidate cached results")
            for rel in sorted(set(entries) - set(reachable)):
                why = ("no cell can import it: editing it turns every "
                       "cached result cold for nothing"
                       if (project.root / rel).is_file()
                       else "no such module exists")
                yield self.hit(anchor, entries[rel], "FPR002",
                               f"{_DECL} lists {rel!r}, but {why}")
