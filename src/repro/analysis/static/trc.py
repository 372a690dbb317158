"""TRC: trace-schema conformance for every emit site.

The observability layer's downstream consumers (profile CLI, critical
path, Perfetto export) key on trace *category* strings and field
names; a typo at an emit site silently produces events nothing reads.
The schema is declared once (``repro.sim.trace_schema``) and every
emit site is checked against it:

* **TRC001** — emit with a category the schema does not declare.
* **TRC002** — emit whose keyword fields do not match the declared
  family: missing required fields, or extra fields on a non-variadic
  family (``**kwargs`` splats disable the missing-field check), or,
  on a variadic family, an extra field spelled like a declared one.
  One finding per site names all of them, and the declared field an
  extra one misspells: a typo of a required field is reported as the
  missing field and the undeclared one together.
  ``tracer.append(t, category, fields)`` takes its fields from a dict
  literal, or from the literal a local name was assigned (plus its
  constant-key stores; an ``update`` call counts as a splat).
* **TRC003** — a *direct* ``tracer.record(...)`` / ``tracer.append``
  call on an attribute whose owning class can hold ``tracer = None``,
  outside any ``if ... is not None`` guard: an AttributeError on the
  hot path of exactly the runs where tracing is off.

The schema itself is recovered statically: the rule AST-extracts
``family(name, fields=..., required=..., variadic=...)`` calls from
any project module whose name ends in ``trace_schema``.  Projects
without such a module (plain fixture packages) skip the TRC pass.
"""

from __future__ import annotations

import ast
import difflib
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set, Tuple, Union

from ..lint import LintViolation, dotted_name
from .project import ModuleInfo, ProjectModel
from .registry import ProjectRule, register_project_rule

__all__ = ["TrcRule", "extract_schema", "SchemaFamily"]

#: both flavours of function definition.
_FuncDef = Union[ast.FunctionDef, ast.AsyncFunctionDef]


@dataclass(frozen=True)
class SchemaFamily:
    """Statically-extracted declaration of one trace family."""

    name: str
    fields: Tuple[str, ...]
    required: Tuple[str, ...]
    variadic: bool


def _str_tuple(node: Optional[ast.expr]) -> Optional[Tuple[str, ...]]:
    if node is None:
        return None
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        out: List[str] = []
        for elt in node.elts:
            if isinstance(elt, ast.Constant) \
                    and isinstance(elt.value, str):
                out.append(elt.value)
            else:
                return None
        return tuple(out)
    return None


def extract_schema(project: ProjectModel
                   ) -> Optional[Dict[str, SchemaFamily]]:
    """Recover the declared trace schema from ``*trace_schema``
    modules by reading ``family(...)`` calls.  None when the project
    declares no schema at all."""
    schema: Dict[str, SchemaFamily] = {}
    found_module = False
    for info in project.modules.values():
        if not info.name.endswith("trace_schema"):
            continue
        found_module = True
        for node in ast.walk(info.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            callee = func.id if isinstance(func, ast.Name) else (
                func.attr if isinstance(func, ast.Attribute) else None)
            if callee != "family" or not node.args:
                continue
            name = info.resolve_str(node.args[0])
            if name is None:
                continue
            kw = {k.arg: k.value for k in node.keywords
                  if k.arg is not None}
            fields = _str_tuple(kw.get("fields")) or (
                _str_tuple(node.args[1]) if len(node.args) > 1 else ())
            fields = fields or ()
            required = _str_tuple(kw.get("required"))
            variadic_node = kw.get("variadic")
            variadic = (isinstance(variadic_node, ast.Constant)
                        and variadic_node.value is True)
            schema[name] = SchemaFamily(
                name=name, fields=fields,
                required=required if required is not None else fields,
                variadic=variadic)
    if not found_module:
        return None
    return schema


@dataclass
class EmitSite:
    """One trace-emit call: category + keyword fields."""

    info: ModuleInfo
    node: ast.Call
    category: Optional[str]     #: None when dynamic
    fields: Tuple[str, ...]
    has_splat: bool             #: call contains **kwargs
    direct: bool                #: tracer.record / emit / append call
    owner: Optional[str]        #: receiver chain, e.g. "self.tracer"


def _emit_sites(project: ProjectModel) -> Iterator[EmitSite]:
    for info, node in project.iter_calls():
        func = node.func
        if not isinstance(func, ast.Attribute):
            # module-level helper: _trace(cat, **fields) style wrappers
            if isinstance(func, ast.Name) and func.id == "_trace" \
                    and node.args:
                yield _site(info, node, node.args[0], direct=False,
                            owner=None)
            continue
        if func.attr == "_trace" and node.args:
            # method wrapper: self._trace("cat", **fields)
            yield _site(info, node, node.args[0], direct=False,
                        owner=None)
        elif func.attr in ("record", "append"):
            owner = dotted_name(func.value)
            if owner is None or owner.split(".")[-1] != "tracer":
                continue
            # Tracer.record(t, category, **fields) and
            # Tracer.append(t, category, fields): category is the
            # second positional argument.
            if len(node.args) < 2:
                continue
            fields_node = (node.args[2] if func.attr == "append"
                           and len(node.args) > 2 else None)
            yield _site(info, node, node.args[1], direct=True,
                        owner=owner, fields_node=fields_node)


def _site(info: ModuleInfo, node: ast.Call, cat_node: ast.expr,
          direct: bool, owner: Optional[str],
          fields_node: Optional[ast.expr] = None) -> EmitSite:
    category = info.resolve_str(cat_node)
    if fields_node is not None:
        fields, has_splat = _dict_fields(info, node, fields_node)
    else:
        fields = tuple(k.arg for k in node.keywords if k.arg is not None)
        has_splat = any(k.arg is None for k in node.keywords)
    return EmitSite(info=info, node=node, category=category,
                    fields=fields, has_splat=has_splat,
                    direct=direct, owner=owner)


def _literal_keys(node: ast.Dict) -> Tuple[Tuple[str, ...], bool]:
    """Constant string keys of a dict literal, and whether any key is
    a ``**`` splat or not a constant string."""
    keys = tuple(k.value for k in node.keys
                 if isinstance(k, ast.Constant) and isinstance(k.value, str))
    return keys, len(keys) != len(node.keys)


def _dict_fields(info: ModuleInfo, call: ast.Call,
                 arg: ast.expr) -> Tuple[Tuple[str, ...], bool]:
    """The field names an ``append`` call's dict argument carries.

    A dict literal gives its keys.  A local name gives the keys of the
    dict literal it was assigned in the enclosing function, plus its
    ``name["key"] = ...`` stores; ``name.update(...)`` makes it a
    splat.  Anything else is an unknown splat (no field check).
    """
    if isinstance(arg, ast.Dict):
        return _literal_keys(arg)
    fn = next((a for a in info.ancestors(call)
               if isinstance(a, (ast.FunctionDef, ast.AsyncFunctionDef))),
              None)
    if not isinstance(arg, ast.Name) or fn is None:
        return (), True
    name = arg.id
    fields: List[str] = []
    literal = splat = False
    for node in ast.walk(fn):
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                if isinstance(target, ast.Name) and target.id == name \
                        and isinstance(node.value, ast.Dict):
                    keys, dynamic = _literal_keys(node.value)
                    fields.extend(keys)
                    literal = True
                    splat = splat or dynamic
                elif isinstance(target, ast.Subscript) \
                        and isinstance(target.value, ast.Name) \
                        and target.value.id == name:
                    key = info.resolve_str(target.slice)
                    if key is None:
                        splat = True
                    else:
                        fields.append(key)
        elif isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "update" \
                and isinstance(node.func.value, ast.Name) \
                and node.func.value.id == name:
            splat = True
    if not literal:
        return (), True
    return tuple(dict.fromkeys(fields)), splat


def _optional_tracer_classes(project: ProjectModel) -> Set[str]:
    """Class names whose instances may hold ``self.tracer = None``:
    an ``__init__`` that assigns None, or a parameter annotated
    ``Optional[...]``/defaulting to None feeding ``self.tracer``."""
    optional: Set[str] = set()
    for info in project.modules.values():
        for node in ast.walk(info.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if _class_tracer_optional(node):
                optional.add(node.name)
    return optional


def _class_tracer_optional(cls: ast.ClassDef) -> bool:
    for item in cls.body:
        if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(item):
            if not isinstance(node, ast.Assign):
                continue
            for target in node.targets:
                if not (isinstance(target, ast.Attribute)
                        and target.attr == "tracer"
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"):
                    continue
                value = node.value
                if isinstance(value, ast.Constant) \
                        and value.value is None:
                    return True
                if isinstance(value, ast.Name) \
                        and _param_optional(item, value.id):
                    return True
    return False


def _param_optional(fn: "_FuncDef", param: str) -> bool:
    args = [*fn.args.posonlyargs, *fn.args.args, *fn.args.kwonlyargs]
    defaults = list(fn.args.defaults)
    # align positional defaults with the tail of positional args
    pos = [*fn.args.posonlyargs, *fn.args.args]
    pos_defaults: Dict[str, ast.expr] = {}
    for arg, default in zip(pos[len(pos) - len(defaults):], defaults):
        pos_defaults[arg.arg] = default
    for arg, kw_default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
        if kw_default is not None:
            pos_defaults[arg.arg] = kw_default
    for arg in args:
        if arg.arg != param:
            continue
        default = pos_defaults.get(param)
        if isinstance(default, ast.Constant) and default.value is None:
            return True
        ann = arg.annotation
        if ann is not None and _annotation_optional(ann):
            return True
    return False


def _annotation_optional(ann: ast.expr) -> bool:
    text = ast.dump(ann)
    return "'Optional'" in text or "'None'" in text \
        or (isinstance(ann, ast.Constant)
            and isinstance(ann.value, str)
            and ("Optional" in ann.value or "None" in ann.value))


def _is_guarded(info: ModuleInfo, node: ast.Call, owner: str) -> bool:
    """True when the call sits inside an ``if <owner> is not None``
    (or truthiness) guard on the same attribute chain."""
    for anc in info.ancestors(node):
        if isinstance(anc, ast.If) and _guards(anc.test, owner):
            return True
        if isinstance(anc, ast.IfExp) and _guards(anc.test, owner):
            return True
        if isinstance(anc, ast.BoolOp) and isinstance(anc.op, ast.And):
            if any(_guards(v, owner) for v in anc.values):
                return True
        if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # early-return guard: `if owner is None: return` earlier
            # in the same function body.
            if _early_return_guard(anc, node, owner):
                return True
            break
    return False


def _guards(test: ast.expr, owner: str) -> bool:
    if isinstance(test, ast.Compare) and len(test.ops) == 1 \
            and isinstance(test.ops[0], ast.IsNot) \
            and isinstance(test.comparators[0], ast.Constant) \
            and test.comparators[0].value is None:
        return dotted_name(test.left) == owner
    if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
        return any(_guards(v, owner) for v in test.values)
    return dotted_name(test) == owner  # plain truthiness


def _early_return_guard(fn: ast.AST, node: ast.Call,
                        owner: str) -> bool:
    call_line = node.lineno
    for stmt in ast.walk(fn):
        if not isinstance(stmt, ast.If):
            continue
        if stmt.lineno >= call_line:
            continue
        test = stmt.test
        is_none = (isinstance(test, ast.Compare)
                   and len(test.ops) == 1
                   and isinstance(test.ops[0], ast.Is)
                   and isinstance(test.comparators[0], ast.Constant)
                   and test.comparators[0].value is None
                   and dotted_name(test.left) == owner)
        not_owner = (isinstance(test, ast.UnaryOp)
                     and isinstance(test.op, ast.Not)
                     and dotted_name(test.operand) == owner)
        if (is_none or not_owner) and stmt.body and isinstance(
                stmt.body[0], (ast.Return, ast.Raise, ast.Continue)):
            return True
    return False


@register_project_rule
class TrcRule(ProjectRule):
    """Every trace emit matches the declared schema and is guarded."""

    name = "trc"
    family = "TRC"
    description = ("trace emit sites conform to the declared schema; "
                   "direct tracer calls on optional tracers are "
                   "guarded")

    def check(self, project: ProjectModel) -> Iterator[LintViolation]:
        schema = extract_schema(project)
        if schema is None:
            return
        optional_classes = _optional_tracer_classes(project)
        for site in _emit_sites(project):
            yield from self._check_site(site, schema, optional_classes)

    def _check_site(self, site: EmitSite,
                    schema: Dict[str, SchemaFamily],
                    optional_classes: Set[str]
                    ) -> Iterator[LintViolation]:
        if site.category is not None:
            fam = schema.get(site.category)
            if fam is None:
                yield self.hit(
                    site.info, site.node, "TRC001",
                    f"trace category {site.category!r} is not declared "
                    f"in the trace schema; downstream consumers will "
                    f"never see these events")
            else:
                yield from self._check_fields(site, fam)
        if site.direct and site.owner is not None:
            yield from self._check_guard(site, optional_classes)

    def _check_fields(self, site: EmitSite, fam: SchemaFamily
                      ) -> Iterator[LintViolation]:
        declared = sorted(fam.fields)
        missing = ([] if site.has_splat
                   else sorted(set(fam.required) - set(site.fields)))
        # An extra field's near match: beside a missing field a looser
        # likeness ("dts" for "dst") is already a likely typo of it.
        near = {name: (difflib.get_close_matches(name, missing, 1, 0.6)
                       or difflib.get_close_matches(name, declared, 1, 0.8)
                       or [None])[0]
                for name in sorted(set(site.fields) - set(declared))}
        # A variadic family takes any extra field, but one spelled like
        # a declared field is a typo of it.
        extra = [name for name, match in near.items()
                 if match or not fam.variadic]
        found = []
        if missing:
            found.append("is missing required field(s) "
                         + ", ".join(missing))
        if extra:
            found.append("passes undeclared field(s) " + ", ".join(extra))
        found += [f"{name!r} looks like a misspelling of {near[name]!r}"
                  for name in extra if near[name]]
        if found:
            found.append(f"declared fields are {', '.join(declared)}")
            yield self.hit(
                site.info, site.node, "TRC002",
                f"trace {site.category!r} emit {'; '.join(found)}")

    def _check_guard(self, site: EmitSite,
                     optional_classes: Set[str]
                     ) -> Iterator[LintViolation]:
        owner = site.owner
        if owner is None:
            return
        if owner.startswith("self."):
            cls = site.info.enclosing_class(site.node)
            if cls is None or cls.name not in optional_classes:
                return
        if _is_guarded(site.info, site.node, owner):
            return
        yield self.hit(
            site.info, site.node, "TRC003",
            f"direct {owner}.record call where {owner} may be None "
            f"and no `is not None` guard encloses the call; this "
            f"raises AttributeError exactly when tracing is disabled")
