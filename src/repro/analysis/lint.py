"""Static determinism lint for the simulator's source tree.

The whole repository rests on the simulation being *deterministic*:
same app, same protocol, same seed => byte-identical traces (that is
what the regression tests and the sanitizer compare against).  The
rules here flag the Python constructs that silently break determinism
or leak real time into simulated time:

* ``wall-clock``      — ``time.time()`` & friends in sim code; all time
  must come from the engine clock (``sim.now``).
* ``global-random``   — module-level ``random.*`` calls; randomness must
  go through a seeded ``random.Random`` instance.
* ``unordered-iter``  — iterating a ``set``/``frozenset`` directly; set
  order is salted per interpreter run, so any event ordering derived
  from it is nondeterministic.  Sort first.
* ``float-time-eq``   — comparing simulated times (``.now``) with
  ``==``/``!=``; float time must be compared with inequalities or a
  tolerance.
* ``mutable-default`` — mutable default arguments: state shared across
  calls behind the caller's back, a classic hidden-channel hazard.
* ``global-mutation`` — module-import-time mutation of module-level
  containers; import order becomes load-bearing, which is shared state
  mutated outside any engine process.

Rules are pluggable: subclass :class:`Rule`, decorate with
:func:`register_rule`, and the CLI (``repro lint``) picks it up.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Type, Union

__all__ = ["LintViolation", "Rule", "RULES", "register_rule",
           "lint_source", "default_target"]


@dataclass(frozen=True)
class LintViolation:
    """One rule hit at one source location.

    ``symbol`` names the innermost enclosing function/class (dotted
    qualname, empty at module level), so a finding says where it is
    without a line number.
    """

    path: str
    line: int
    col: int
    rule: str
    message: str
    symbol: str = ""

    def __str__(self) -> str:
        return (f"{self.path}:{self.line}:{self.col}: "
                f"[{self.rule}] {self.message}")

    @property
    def family(self) -> str:
        """The rule family: ``PROTO002 -> PROTO``, local names as-is."""
        return self.rule.rstrip("0123456789")


class Rule:
    """One lint rule: an AST pass yielding violations."""

    name = "abstract"
    description = ""

    def check(self, tree: ast.Module, path: str) -> Iterator[LintViolation]:
        raise NotImplementedError

    def hit(self, node: ast.AST, path: str, message: str) -> LintViolation:
        return LintViolation(path=path,
                             line=getattr(node, "lineno", 0),
                             col=getattr(node, "col_offset", 0),
                             rule=self.name, message=message)


#: name -> rule class; later PRs register their own rules here.
RULES: Dict[str, Type[Rule]] = {}


def register_rule(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the default lint set."""
    if cls.name in RULES:
        raise ValueError(f"duplicate lint rule {cls.name!r}")
    RULES[cls.name] = cls
    return cls


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for an Attribute/Name chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


# ----------------------------------------------------------------- rules


@register_rule
class WallClockRule(Rule):
    """Real time must never reach simulation logic."""

    name = "wall-clock"
    description = "use the engine clock (sim.now), not the wall clock"

    BANNED = frozenset({
        "time.time", "time.time_ns", "time.monotonic",
        "time.monotonic_ns", "time.perf_counter",
        "time.perf_counter_ns", "time.process_time",
        "datetime.now", "datetime.utcnow", "datetime.today",
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.date.today",
    })

    def check(self, tree: ast.Module, path: str) -> Iterator[LintViolation]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                dotted = dotted_name(node.func)
                if dotted in self.BANNED:
                    yield self.hit(
                        node, path,
                        f"{dotted}() reads the wall clock; simulated "
                        f"code must use the engine clock (sim.now)")


@register_rule
class GlobalRandomRule(Rule):
    """Randomness must come from a seeded ``random.Random``."""

    name = "global-random"
    description = "use a seeded random.Random, not module-level random"

    ALLOWED_ATTRS = frozenset({"Random"})

    def check(self, tree: ast.Module, path: str) -> Iterator[LintViolation]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                if (isinstance(func, ast.Attribute)
                        and isinstance(func.value, ast.Name)
                        and func.value.id == "random"
                        and func.attr not in self.ALLOWED_ATTRS):
                    yield self.hit(
                        node, path,
                        f"random.{func.attr}() uses the shared global "
                        f"RNG; construct a seeded random.Random instead")
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random":
                    bad = [a.name for a in node.names
                           if a.name not in self.ALLOWED_ATTRS]
                    if bad:
                        yield self.hit(
                            node, path,
                            f"importing {', '.join(bad)} from random "
                            f"hides the global-RNG dependency; import "
                            f"random.Random and seed it")


@register_rule
class UnorderedIterRule(Rule):
    """Event ordering must not depend on set iteration order."""

    name = "unordered-iter"
    description = "iterate sets via sorted(...), never directly"

    SET_CALLS = frozenset({"set", "frozenset"})

    def _is_set_expr(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in self.SET_CALLS
        return False

    def check(self, tree: ast.Module, path: str) -> Iterator[LintViolation]:
        for node in ast.walk(tree):
            iters: List[ast.AST] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp,
                                   ast.DictComp, ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
            for it in iters:
                if self._is_set_expr(it):
                    yield self.hit(
                        it, path,
                        "iteration order of a set is nondeterministic; "
                        "wrap it in sorted(...) before iterating")


@register_rule
class FloatTimeEqRule(Rule):
    """Simulated (float) times must not be compared with ``==``."""

    name = "float-time-eq"
    description = "compare simulated times with inequalities, not =="

    def _mentions_now(self, node: ast.AST) -> bool:
        return any(isinstance(sub, ast.Attribute) and sub.attr == "now"
                   for sub in ast.walk(node))

    def check(self, tree: ast.Module, path: str) -> Iterator[LintViolation]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Compare):
                continue
            if not any(isinstance(op, (ast.Eq, ast.NotEq))
                       for op in node.ops):
                continue
            operands = [node.left, *node.comparators]
            if any(self._mentions_now(o) for o in operands):
                yield self.hit(
                    node, path,
                    "floating-point simulation times compared with "
                    "==/!=; use inequalities or an explicit tolerance")


@register_rule
class MutableDefaultRule(Rule):
    """Default arguments must not be mutable."""

    name = "mutable-default"
    description = "mutable defaults are call-to-call shared state"

    MUTABLE_CALLS = frozenset({"list", "dict", "set", "bytearray",
                               "defaultdict", "deque", "Counter"})

    def _is_mutable(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                             ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in self.MUTABLE_CALLS
        return False

    def check(self, tree: ast.Module, path: str) -> Iterator[LintViolation]:
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                continue
            defaults = [*node.args.defaults,
                        *[d for d in node.args.kw_defaults
                          if d is not None]]
            for default in defaults:
                if self._is_mutable(default):
                    yield self.hit(
                        default, path,
                        f"mutable default argument in {node.name}(); "
                        f"shared across calls — default to None and "
                        f"construct inside")


@register_rule
class GlobalMutationRule(Rule):
    """Shared module state must not be mutated at import time."""

    name = "global-mutation"
    description = ("import-time mutation of module globals makes import "
                   "order load-bearing (shared state outside any engine "
                   "process)")

    MUTATORS = frozenset({"append", "extend", "insert", "add", "update",
                          "setdefault", "pop", "popitem", "remove",
                          "discard", "clear", "appendleft"})

    def _top_level(self, tree: ast.Module) -> Iterator[ast.stmt]:
        for stmt in tree.body:
            if isinstance(stmt, ast.If):
                # e.g. `if TYPE_CHECKING:` / __main__ guards — their
                # bodies still run at import time (except __main__).
                yield from stmt.body
                yield from stmt.orelse
            else:
                yield stmt

    def check(self, tree: ast.Module, path: str) -> Iterator[LintViolation]:
        for stmt in self._top_level(tree):
            if isinstance(stmt, ast.Expr) and isinstance(stmt.value,
                                                         ast.Call):
                func = stmt.value.func
                if (isinstance(func, ast.Attribute)
                        and func.attr in self.MUTATORS
                        and dotted_name(func) is not None):
                    yield self.hit(
                        stmt, path,
                        f"module-level call to {dotted_name(func)}() mutates "
                        f"a global at import time; build the value in "
                        f"one expression instead")
            elif isinstance(stmt, (ast.Assign, ast.AugAssign)):
                targets = (stmt.targets
                           if isinstance(stmt, ast.Assign)
                           else [stmt.target])
                for target in targets:
                    if isinstance(target, ast.Subscript):
                        yield self.hit(
                            stmt, path,
                            "module-level subscript assignment mutates "
                            "a global at import time; build the value "
                            "in one expression instead")


# ------------------------------------------------------------------ driver


def lint_source(source: str, path: str = "<string>",
                rules: Optional[Sequence[str]] = None
                ) -> List[LintViolation]:
    """Lint one source string; returns violations sorted by location."""
    names = list(rules) if rules is not None else sorted(RULES)
    unknown = [n for n in names if n not in RULES]
    if unknown:
        raise ValueError(f"unknown lint rules: {unknown}")
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as err:
        return [LintViolation(path=path, line=err.lineno or 0,
                              col=err.offset or 0, rule="syntax",
                              message=str(err.msg))]
    out: List[LintViolation] = []
    for name in names:
        out.extend(RULES[name]().check(tree, path))
    return sorted(out, key=lambda v: (v.path, v.line, v.col, v.rule))


def iter_py_files(paths: Iterable[Union[str, Path]]) -> Iterator[Path]:
    """``*.py`` files under ``paths``; unknown paths are usage errors."""
    for p in paths:
        p = Path(p)
        if p.is_dir():
            yield from sorted(p.rglob("*.py"))
        elif p.is_file():
            if p.suffix == ".py":
                yield p
        else:
            raise FileNotFoundError(
                f"no such file or directory: {p}")


def default_target() -> Path:
    """The package source tree ``repro lint`` checks by default."""
    return Path(__file__).resolve().parent.parent
