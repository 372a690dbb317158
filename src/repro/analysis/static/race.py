"""RACE: cross-node shared objects mutated outside engine dispatch.

The simulated machine has exactly three objects that more than one
node touches: the :class:`Network`, the :class:`ResultStore`, and the
(frozen) :class:`MachineConfig`.  The determinism story depends on
all mutation of these flowing through engine dispatch — a direct
attribute store from protocol code is a cross-node race in the model
even though Python serialises it.

* **RACE001** — an attribute store on an object whose name marks it
  as shared (``network.*``, ``results.*``, ``config.*`` and their
  ``self.``-qualified forms) outside the allowed contexts: the shared
  class's own methods, any ``__init__``/``__post_init__``
  (construction wiring), the module that defines the class, and
  ``repro.sim`` (the engine itself).
* **RACE002** — a shared class used as a parameter default: one
  instance silently shared by every caller of the function (the
  mutable-default hazard, specialised to cross-node state).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Union

from ..lint import LintViolation, dotted_name
from .project import ModuleInfo, ProjectModel
from .registry import ProjectRule, register_project_rule

__all__ = ["RaceRule", "SHARED_CLASSES"]

#: class name -> attribute stems its instances are bound to.
SHARED_CLASSES: Dict[str, Set[str]] = {
    "Network": {"network", "net"},
    "ResultStore": {"results", "result_store", "store"},
    "MachineConfig": {"config", "cfg"},
}

#: construction contexts where wiring mutation is expected.
_INIT_METHODS = frozenset({"__init__", "__post_init__"})


def _shared_stem(target: ast.Attribute) -> Optional[str]:
    """The shared-class name an attribute store targets, or None.

    Matches ``network.x = ...``, ``self.network.x = ...`` and deeper
    chains whose *second-to-last* component is a shared stem — but
    NOT ``self.network = ...`` (binding the reference is not mutating
    the shared object).
    """
    base = dotted_name(target.value)
    if base is None:
        return None
    parts = base.split(".")
    stem = parts[-1]
    for cls, stems in SHARED_CLASSES.items():
        if stem in stems:
            return cls
    return None


def _in_allowed_context(project: ProjectModel, info: ModuleInfo,
                        node: ast.AST, cls_name: str) -> bool:
    # inside repro.sim: the engine mediates everything it does.
    if info.name.startswith(f"{project.package}.sim"):
        return True
    # inside the module that defines the shared class.
    for def_info, _ in project.find_class(cls_name):
        if def_info.name == info.name:
            return True
    for anc in info.ancestors(node):
        if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if anc.name in _INIT_METHODS:
                return True
        elif isinstance(anc, ast.ClassDef):
            if anc.name == cls_name:
                return True
    return False


@register_project_rule
class RaceRule(ProjectRule):
    """Mutation of cross-node shared objects stays in the engine."""

    name = "race"
    family = "RACE"
    description = ("Network/ResultStore/MachineConfig are only "
                   "mutated through engine dispatch or construction")

    def check(self, project: ProjectModel) -> Iterator[LintViolation]:
        for info in project.modules.values():
            for node in ast.walk(info.tree):
                if isinstance(node, (ast.Assign, ast.AugAssign)):
                    yield from self._check_store(project, info, node)
                elif isinstance(node, (ast.FunctionDef,
                                       ast.AsyncFunctionDef)):
                    yield from self._check_defaults(info, node)

    def _check_store(self, project: ProjectModel, info: ModuleInfo,
                     node: "Union[ast.Assign, ast.AugAssign]"
                     ) -> Iterator[LintViolation]:
        targets: List[ast.expr] = (
            list(node.targets) if isinstance(node, ast.Assign)
            else [node.target])
        for target in targets:
            if not isinstance(target, ast.Attribute):
                continue
            cls_name = _shared_stem(target)
            if cls_name is None:
                continue
            if _in_allowed_context(project, info, node, cls_name):
                continue
            base = dotted_name(target.value) or "?"
            yield self.hit(
                info, node, "RACE001",
                f"attribute store {base}.{target.attr} mutates shared "
                f"{cls_name} state outside engine dispatch or "
                f"construction; route it through an engine event")

    def _check_defaults(
            self, info: ModuleInfo,
            fn: "Union[ast.FunctionDef, ast.AsyncFunctionDef]"
            ) -> Iterator[LintViolation]:
        defaults = [*fn.args.defaults,
                    *[d for d in fn.args.kw_defaults if d is not None]]
        for default in defaults:
            if not isinstance(default, ast.Call):
                continue
            callee = default.func
            name = (callee.id if isinstance(callee, ast.Name)
                    else callee.attr
                    if isinstance(callee, ast.Attribute) else None)
            if name in SHARED_CLASSES:
                yield self.hit(
                    info, default, "RACE002",
                    f"{name}() constructed as a parameter default of "
                    f"{fn.name}(): one shared instance serves every "
                    f"caller — a cross-node aliasing hazard; default "
                    f"to None and construct inside")
