"""PROTO: protocol-flow checks between send sites and dispatch tables.

The paper's synchronous-handler argument only holds if every message
kind that reaches an NI has a handler wired for it — a kind consumed
by firmware (``deliver_to_host=False``) with no ``fw_handlers``
registration raises ``LookupError`` at simulation time, but only on
the first run that happens to send it.  These checks make the wiring
a static property:

* **PROTO001** — a kind is sent firmware-consumed but no module
  registers a firmware handler for it.
* **PROTO002** — a firmware-handler registration exists for a kind
  that no send site constructs:
  unreachable handler.
* **PROTO003** — a kind declared in a ``FW_KINDS`` table has no
  firmware handler registration.
* **PROTO004** — a ``Message`` is constructed with a declared
  firmware kind but without ``deliver_to_host=False``: it would enter
  the host FIFO where nothing dispatches it.
* **PROTO005** — a host-delivered kind is sent fire-and-forget at
  every site (no ``on_delivered``/``on_packet_delivered``/
  ``await_delivery``): nothing in the program consumes the delivery.

Send sites are ``Message(...)`` constructions and ``.send`` /
``.send_multicast`` calls with a literal (or module-constant) kind;
dynamic kinds are skipped.  Registrations are ``*.fw_handlers[k] = f``
assignments.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..lint import LintViolation, dotted_name
from .project import ModuleInfo, ProjectModel
from .registry import ProjectRule, register_project_rule

__all__ = ["ProtoRule", "extract_protocol_flow"]

#: kw names that mark a send site as consuming its own delivery.
_CONSUMING_KWARGS = frozenset({"on_delivered", "on_packet_delivered",
                               "await_delivery"})


@dataclass
class SendSite:
    """One message-kind construction point."""

    info: ModuleInfo
    node: ast.Call
    kind: str
    fw: Optional[bool]      #: deliver_to_host=False? None = dynamic
    consuming: bool         #: carries a delivery callback / await


@dataclass
class Registration:
    """One firmware dispatch-table entry."""

    info: ModuleInfo
    node: ast.AST
    kind: str


@dataclass
class ProtocolFlow:
    """Everything PROTO checks: sends, registrations, declarations."""

    sends: List[SendSite]
    registrations: List[Registration]
    #: FW_KINDS declarations: kind -> declaration site.
    declared_fw: Dict[str, Tuple[ModuleInfo, ast.AST]]

    def fw_registered(self) -> Set[str]:
        return {r.kind for r in self.registrations}

    def sent_kinds(self) -> Set[str]:
        return {s.kind for s in self.sends}


def _kw(node: ast.Call, name: str) -> Optional[ast.expr]:
    for kw in node.keywords:
        if kw.arg == name:
            return kw.value
    return None


def _literal_bool(node: Optional[ast.expr]) -> Optional[bool]:
    if isinstance(node, ast.Constant) and isinstance(node.value, bool):
        return node.value
    return None


def extract_protocol_flow(project: ProjectModel) -> ProtocolFlow:
    """Collect send sites, registrations and FW_KINDS declarations."""
    sends: List[SendSite] = []
    registrations: List[Registration] = []
    declared_fw: Dict[str, Tuple[ModuleInfo, ast.AST]] = {}

    for info in project.modules.values():
        for node in ast.walk(info.tree):
            if isinstance(node, ast.Call):
                _extract_call(info, node, sends)
            elif isinstance(node, ast.Assign):
                _extract_assign(info, node, registrations, declared_fw)
    return ProtocolFlow(sends=sends, registrations=registrations,
                        declared_fw=declared_fw)


def _extract_call(info: ModuleInfo, node: ast.Call,
                  sends: List[SendSite]) -> None:
    func = node.func
    callee = func.attr if isinstance(func, ast.Attribute) else (
        func.id if isinstance(func, ast.Name) else None)
    if callee == "Message":
        kind_node = _kw(node, "kind")
        kind = ("deposit" if kind_node is None
                else info.resolve_str(kind_node))
        if kind is None:
            return
        dth = _kw(node, "deliver_to_host")
        lit = _literal_bool(dth)
        # deliver_to_host defaults to True -> not firmware-consumed;
        # a literal False marks a firmware kind; anything non-literal
        # is dynamic.
        fw: Optional[bool]
        if dth is None:
            fw = False
        elif lit is not None:
            fw = not lit
        else:
            fw = None
        consuming = any(kw.arg in _CONSUMING_KWARGS
                        for kw in node.keywords)
        sends.append(SendSite(info=info, node=node, kind=kind,
                              fw=fw, consuming=consuming))
    elif callee in ("send", "send_multicast") \
            and isinstance(func, ast.Attribute):
        if any(isinstance(a, ast.Call)
               and isinstance(a.func, (ast.Name, ast.Attribute))
               and (a.func.id if isinstance(a.func, ast.Name)
                    else a.func.attr) == "Message"
               for a in node.args):
            # send(Message(...)) wrapper style: the construction is
            # already recorded as its own send site.
            return
        kind_node = _kw(node, "kind")
        kind = ("deposit" if kind_node is None
                else info.resolve_str(kind_node))
        if kind is None:
            return
        consuming = any(kw.arg in _CONSUMING_KWARGS
                        for kw in node.keywords)
        # an explicit deliver_to_host literal pins the path; absent,
        # ``send`` derives it from FW_KINDS membership — resolved
        # against the declarations during checking (fw=None).
        lit = _literal_bool(_kw(node, "deliver_to_host"))
        sends.append(SendSite(info=info, node=node, kind=kind,
                              fw=None if lit is None else not lit,
                              consuming=consuming))


def _extract_assign(info: ModuleInfo, node: ast.Assign,
                    registrations: List[Registration],
                    declared_fw: Dict[str, Tuple[ModuleInfo, ast.AST]]
                    ) -> None:
    for target in node.targets:
        if isinstance(target, ast.Subscript):
            base = dotted_name(target.value)
            if base is not None and base.split(".")[-1] == "fw_handlers":
                kind = info.resolve_str(target.slice)
                if kind is not None:
                    registrations.append(Registration(
                        info=info, node=node, kind=kind))
    # FW_KINDS declarations (module or class level) come through the
    # constant table; anchor them at this assignment.
    targets = [t for t in node.targets if isinstance(t, ast.Name)]
    if len(targets) == 1 and targets[0].id == "FW_KINDS":
        for kind in info.tuple_constants.get("FW_KINDS", ()):
            declared_fw.setdefault(kind, (info, node))


@register_project_rule
class ProtoRule(ProjectRule):
    """Send sites and dispatch tables must agree, both directions."""

    name = "proto"
    family = "PROTO"
    description = ("every sent message kind has a matching dispatch "
                   "handler, and every handler a sender")

    def check(self, project: ProjectModel) -> Iterator[LintViolation]:
        flow = extract_protocol_flow(project)
        fw_registered = flow.fw_registered()
        sent = flow.sent_kinds()
        declared = set(flow.declared_fw)

        # Kinds known to be firmware-consumed: declared tables plus
        # explicit deliver_to_host=False constructions.
        fw_kinds = declared | {s.kind for s in flow.sends
                               if s.fw is True}

        # PROTO001: firmware-consumed send with no handler anywhere.
        for site in flow.sends:
            is_fw = site.fw is True or (site.fw is None
                                        and site.kind in fw_kinds)
            if is_fw and site.kind not in fw_registered:
                yield self.hit(
                    site.info, site.node, "PROTO001",
                    f"kind {site.kind!r} is sent firmware-consumed "
                    f"but no module registers fw_handlers[{site.kind!r}]"
                    f" — the receiving NI would raise LookupError")

        # PROTO002: registered handler nothing ever sends to.
        for reg in flow.registrations:
            if reg.kind not in sent:
                yield self.hit(
                    reg.info, reg.node, "PROTO002",
                    f"fw_handlers registered for kind {reg.kind!r} but no "
                    f"send site constructs that kind: unreachable "
                    f"handler")

        # PROTO003: declared firmware kind with no registration.
        for kind, (info, node) in sorted(flow.declared_fw.items()):
            if kind not in fw_registered:
                yield self.hit(
                    info, node, "PROTO003",
                    f"FW_KINDS declares {kind!r} but no module "
                    f"registers a firmware handler for it")

        # PROTO004: firmware kind constructed on the host-delivery path.
        for site in flow.sends:
            if site.kind in fw_kinds and site.fw is False \
                    and isinstance(site.node.func, (ast.Name,
                                                    ast.Attribute)):
                callee = (site.node.func.attr
                          if isinstance(site.node.func, ast.Attribute)
                          else site.node.func.id)
                if callee == "Message":
                    yield self.hit(
                        site.info, site.node, "PROTO004",
                        f"Message kind {site.kind!r} is a declared "
                        f"firmware kind but deliver_to_host is not "
                        f"False here: it would enter the host FIFO "
                        f"with no delivery handler")

        # PROTO005: host-delivered kind nobody consumes.
        host_kinds: Dict[str, List[SendSite]] = {}
        for site in flow.sends:
            if site.kind in fw_kinds:
                continue
            if site.fw is True:
                continue
            host_kinds.setdefault(site.kind, []).append(site)
        for kind, sites in sorted(host_kinds.items()):
            if any(s.consuming for s in sites):
                continue
            site = sites[0]
            yield self.hit(
                site.info, site.node, "PROTO005",
                f"kind {kind!r} is delivered to host memory but no "
                f"send site attaches a delivery callback: the delivery "
                f"is never consumed")
