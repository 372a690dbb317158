"""Whole-program project model: per-module ASTs, imports, symbols.

:class:`ProjectModel` loads every ``*.py`` under one package root,
parses it once, and exposes the cross-module facts the rule families
need:

* the **import graph** (project-internal edges only, resolved from
  absolute and relative imports at any nesting depth — function-level
  lazy imports included, because the cache fingerprint rule cares
  exactly about those; imports under ``if TYPE_CHECKING:`` never run,
  so they are no edges).  ``from hub import name``, where ``hub`` is a
  PEP 562 lazy package, is an edge to the one module its literal
  ``__getattr__`` import of ``name`` loads; the imports inside that
  ``__getattr__`` are no edges of the hub itself;
* a **symbol table** of classes and functions per module, plus
  line-interval lookup of the innermost enclosing definition (each
  finding names the symbol it sits in);
* **constant resolution** for module-level string and tuple-of-string
  assignments (dispatch registrations like ``fw_handlers[ACK_KIND]``
  resolve through it);
* **parent chains** for guard analysis (is this call inside an
  ``if x is not None:`` body?).

Modules that fail to parse are recorded as ``syntax`` violations on
the model (never raised); rules simply do not see them.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..lint import LintViolation

__all__ = ["ModuleInfo", "ProjectModel"]


@dataclass
class ModuleInfo:
    """One parsed module of the project."""

    name: str                 #: dotted module name ("repro.svm.protocol")
    path: Path                #: absolute source path
    rel: str                  #: path relative to the package root (posix)
    tree: ast.Module
    source: str
    is_package: bool          #: True for ``__init__.py`` modules
    #: project-internal modules this module imports (any nesting depth).
    imports: Set[str] = field(default_factory=set)
    #: a lazy hub's exports: name -> (absolute base, imported name), one
    #: per literal ``from`` import in its ``__getattr__``.
    lazy_exports: Dict[str, Tuple[str, str]] = field(default_factory=dict)
    #: module-level ``NAME = "str"`` constants.
    str_constants: Dict[str, str] = field(default_factory=dict)
    #: module- and class-level ``NAME = ("a", "b")`` constants; class
    #: level entries are stored under both ``NAME`` and ``Cls.NAME``.
    tuple_constants: Dict[str, Tuple[str, ...]] = field(
        default_factory=dict)
    _parents: Optional[Dict[int, ast.AST]] = field(
        default=None, repr=False)
    _symbols: Optional[List[Tuple[int, int, str]]] = field(
        default=None, repr=False)

    # ---------------------------------------------------------- lazy maps

    def parents(self) -> Dict[int, ast.AST]:
        """``id(child) -> parent`` for every node of the tree."""
        if self._parents is None:
            parents: Dict[int, ast.AST] = {}
            for node in ast.walk(self.tree):
                for child in ast.iter_child_nodes(node):
                    parents[id(child)] = node
            self._parents = parents
        return self._parents

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        """The chain of enclosing nodes, innermost first."""
        parents = self.parents()
        current: Optional[ast.AST] = parents.get(id(node))
        while current is not None:
            yield current
            current = parents.get(id(current))

    def _symbol_spans(self) -> List[Tuple[int, int, str]]:
        if self._symbols is None:
            spans: List[Tuple[int, int, str]] = []

            def visit(node: ast.AST, prefix: str) -> None:
                for child in ast.iter_child_nodes(node):
                    if isinstance(child, (ast.FunctionDef,
                                          ast.AsyncFunctionDef,
                                          ast.ClassDef)):
                        qual = (f"{prefix}.{child.name}"
                                if prefix else child.name)
                        end = getattr(child, "end_lineno",
                                      child.lineno) or child.lineno
                        spans.append((child.lineno, end, qual))
                        visit(child, qual)
                    else:
                        visit(child, prefix)

            visit(self.tree, "")
            self._symbols = spans
        return self._symbols

    def symbol_at(self, lineno: int) -> str:
        """Dotted qualname of the innermost def/class at ``lineno``."""
        best = ""
        best_width = None
        for start, end, qual in self._symbol_spans():
            if start <= lineno <= end:
                width = end - start
                if best_width is None or width <= best_width:
                    best, best_width = qual, width
        return best

    def enclosing_class(self, node: ast.AST) -> Optional[ast.ClassDef]:
        """The nearest enclosing ClassDef of ``node`` (None at module
        level or inside a plain function)."""
        for anc in self.ancestors(node):
            if isinstance(anc, ast.ClassDef):
                return anc
            if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
        return None

    # ------------------------------------------------------- resolution

    def resolve_str(self, node: ast.AST) -> Optional[str]:
        """A literal or module-constant string value, else None."""
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
        if isinstance(node, ast.Name):
            return self.str_constants.get(node.id)
        return None


def _is_type_checking(test: ast.expr) -> bool:
    """``TYPE_CHECKING`` or ``<module>.TYPE_CHECKING``."""
    if isinstance(test, ast.Attribute):
        return test.attr == "TYPE_CHECKING"
    return isinstance(test, ast.Name) and test.id == "TYPE_CHECKING"


def _lazy_hook(info: ModuleInfo) -> Optional[ast.FunctionDef]:
    """The module-level ``__getattr__`` of a package ``__init__``: the
    PEP 562 hook that makes the package a lazy hub."""
    if info.is_package:
        for node in info.tree.body:
            if isinstance(node, ast.FunctionDef) \
                    and node.name == "__getattr__":
                return node
    return None


def _runtime_nodes(tree: ast.AST,
                   skip: Optional[ast.AST] = None) -> Iterator[ast.AST]:
    """Every node of ``tree`` that can execute: ``ast.walk`` minus the
    bodies of ``if TYPE_CHECKING:`` blocks (their ``else`` runs) and
    minus the subtree ``skip``."""
    stack: List[ast.AST] = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        yield node
        if isinstance(node, ast.If) and _is_type_checking(node.test):
            stack.extend(node.orelse)
        else:
            stack.extend(ast.iter_child_nodes(node))


class ProjectModel:
    """All modules of one package, with cross-module lookups."""

    def __init__(self, package: str, root: Path):
        self.package = package
        self.root = root
        #: dotted name -> module.
        self.modules: Dict[str, ModuleInfo] = {}
        #: parse failures, as ``syntax`` violations (never raised).
        self.syntax_errors: List[LintViolation] = []

    # --------------------------------------------------------------- load

    @classmethod
    def load(cls, root: Path,
             package: Optional[str] = None) -> "ProjectModel":
        """Parse every module under ``root`` (a package directory)."""
        root = Path(root).resolve()
        model = cls(package or root.name, root)
        for path in sorted(root.rglob("*.py")):
            rel = path.relative_to(root).as_posix()
            name = model._module_name(rel)
            source = path.read_text(encoding="utf-8")
            try:
                tree = ast.parse(source, filename=str(path))
            except SyntaxError as err:
                model.syntax_errors.append(LintViolation(
                    path=str(path), line=err.lineno or 0,
                    col=err.offset or 0, rule="syntax",
                    message=str(err.msg)))
                continue
            info = ModuleInfo(
                name=name, path=path, rel=rel, tree=tree, source=source,
                is_package=path.name == "__init__.py")
            model.modules[name] = info
        for info in model.modules.values():
            model._collect_lazy_exports(info)
        for info in model.modules.values():
            model._collect_imports(info)
            model._collect_constants(info)
        return model

    def _module_name(self, rel: str) -> str:
        parts = rel[:-3].split("/")          # strip ".py"
        if parts[-1] == "__init__":
            parts = parts[:-1]
        return ".".join([self.package, *parts]) if parts \
            else self.package

    # ------------------------------------------------------------ imports

    def _collect_lazy_exports(self, info: ModuleInfo) -> None:
        hook = _lazy_hook(info)
        if hook is None:
            return
        for node in _runtime_nodes(hook):
            if isinstance(node, ast.ImportFrom):
                base = self._import_base(info, node)
                if base is not None:
                    for alias in node.names:
                        info.lazy_exports[alias.asname or alias.name] = (
                            base, alias.name)

    def _collect_imports(self, info: ModuleInfo) -> None:
        for node in _runtime_nodes(info.tree, skip=_lazy_hook(info)):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self._add_internal(info, alias.name)
            elif isinstance(node, ast.ImportFrom):
                base = self._import_base(info, node)
                if base is None:
                    continue
                for alias in node.names:
                    self._add_internal(info,
                                       self._resolve_from(base, alias.name))

    def _resolve_from(self, base: str, name: str) -> str:
        """The module ``from base import name`` depends on: the
        submodule ``base.name`` if there is one, else the module a lazy
        hub's ``__getattr__`` imports ``name`` from (followed through
        hubs of hubs), else ``base`` itself."""
        if f"{base}.{name}" in self.modules:
            return f"{base}.{name}"
        hub = self.modules.get(base)
        if hub is not None and name in hub.lazy_exports:
            return self._resolve_from(*hub.lazy_exports[name])
        return base

    def _import_base(self, info: ModuleInfo,
                     node: ast.ImportFrom) -> Optional[str]:
        """Absolute dotted base of a ``from`` import, or None when the
        import is external to the project."""
        if node.level == 0:
            module = node.module or ""
            if module == self.package \
                    or module.startswith(self.package + "."):
                return module
            return None
        parts = info.name.split(".")
        if not info.is_package:
            parts = parts[:-1]
        drop = node.level - 1
        if drop:
            parts = parts[:-drop] if drop < len(parts) else []
        if not parts:
            return None
        base = ".".join(parts)
        return f"{base}.{node.module}" if node.module else base

    def _add_internal(self, info: ModuleInfo, name: str) -> None:
        """Add the longest loaded-module prefix of ``name``."""
        if not (name == self.package
                or name.startswith(self.package + ".")):
            return
        parts = name.split(".")
        while parts:
            candidate = ".".join(parts)
            if candidate in self.modules:
                if candidate != info.name:
                    info.imports.add(candidate)
                return
            parts.pop()

    # ---------------------------------------------------------- constants

    def _collect_constants(self, info: ModuleInfo) -> None:
        def record(target: ast.AST, value: ast.AST,
                   prefix: str = "") -> None:
            if not isinstance(target, ast.Name):
                return
            name = f"{prefix}{target.id}" if prefix else target.id
            if isinstance(value, ast.Constant) \
                    and isinstance(value.value, str):
                info.str_constants[name] = value.value
                if prefix:  # also visible unqualified inside the class
                    info.str_constants.setdefault(target.id, value.value)
            elif isinstance(value, (ast.Tuple, ast.List)):
                elems = []
                for e in value.elts:
                    if isinstance(e, ast.Constant) \
                            and isinstance(e.value, str):
                        elems.append(e.value)
                    else:
                        return
                info.tuple_constants[name] = tuple(elems)
                if prefix:
                    info.tuple_constants.setdefault(target.id,
                                                    tuple(elems))

        for stmt in info.tree.body:
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                record(stmt.targets[0], stmt.value)
            elif isinstance(stmt, ast.ClassDef):
                for sub in stmt.body:
                    if isinstance(sub, ast.Assign) \
                            and len(sub.targets) == 1:
                        record(sub.targets[0], sub.value,
                               prefix=f"{stmt.name}.")

    # ------------------------------------------------------------ lookups

    def reachable_from(self, entry: str) -> Set[str]:
        """Transitive import closure of ``entry`` (inclusive).  Python
        runs ``a`` and ``a.b`` before ``a.b.c``, so every reached
        module's parent packages are reached too."""
        seen: Set[str] = set()
        frontier = [entry]
        while frontier:
            name = frontier.pop()
            if name in seen or name not in self.modules:
                continue
            seen.add(name)
            frontier.extend(self.modules[name].imports)
            frontier.append(name.rpartition(".")[0])
        return seen

    def find_class(self, class_name: str
                   ) -> List[Tuple[ModuleInfo, ast.ClassDef]]:
        """Every definition of ``class_name`` across the project."""
        out: List[Tuple[ModuleInfo, ast.ClassDef]] = []
        for info in self.modules.values():
            for node in info.tree.body:
                if isinstance(node, ast.ClassDef) \
                        and node.name == class_name:
                    out.append((info, node))
        return out

    def iter_calls(self) -> Iterator[Tuple[ModuleInfo, ast.Call]]:
        """Every call expression in every module."""
        for info in self.modules.values():
            for node in ast.walk(info.tree):
                if isinstance(node, ast.Call):
                    yield info, node
