"""Recovery-discipline rules over the architecture layer (``repro.core``).

ARCH01 keeps every architecture an honest implementation of the
``RecoveryArchitecture`` hook surface declared in ``core/base.py``: hook
overrides must keep the base signature (the machine calls them
positionally), near-miss public method names are flagged as probable hook
typos (a misspelled ``on_commit`` silently never runs — the transaction
simply loses its recovery work), ``attach`` overrides must chain to
``super().attach``, and every architecture must name itself.

The write-ahead/shadow ordering discipline that used to live here as
ARCH02 (a source-order walk) is superseded by the flow-sensitive
PROTO01/PROTO02 rules in :mod:`repro.lint.rules.protocol`, which check
the same contract on every CFG path and through helper calls.

ARCH03 keeps the checkpoint contract total over the functional engines
(``repro.storage``): every ``RecoveryManager`` subclass must declare its
checkpoint capability — a ``checkpoint_policy`` class attribute naming
the :mod:`repro.checkpoint` policy its checkpoint steps follow, or an explicit
``checkpoint_unsupported`` opt-out.  A silent default would let a new
architecture ship without bounded-restart support and nobody would
notice until a restart scanned an unbounded log.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Tuple

from repro.lint.astutil import edit_distance
from repro.lint.engine import ModuleContext, Project, Rule, register

__all__ = ["Arch01HookSurface", "Arch03CheckpointCapability"]

_BASE_MODULE = "repro.core.base"
_BASE_CLASS = "RecoveryArchitecture"


def _base_surface(project: Project) -> Optional[Dict[str, List[str]]]:
    """Public method name -> positional parameter names, from core/base.py."""
    base = project.module(_BASE_MODULE)
    if base is None or base.tree is None:
        return None
    for node in base.tree.body:
        if isinstance(node, ast.ClassDef) and node.name == _BASE_CLASS:
            surface = {}
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    surface[item.name] = [arg.arg for arg in item.args.args]
            return surface
    return None


def _architecture_classes(module: ModuleContext, project: Project) -> List[ast.ClassDef]:
    descendants = project.descendants_of(_BASE_CLASS)
    return [
        node
        for node in ast.walk(module.tree)
        if isinstance(node, ast.ClassDef) and node.name in descendants
    ]


def _in_scope(module: ModuleContext) -> bool:
    return module.in_package("repro.core") and module.package != _BASE_MODULE


def _defines_attr(cls: ast.ClassDef, attr: str) -> bool:
    for item in cls.body:
        if isinstance(item, ast.Assign):
            if any(isinstance(t, ast.Name) and t.id == attr for t in item.targets):
                return True
        if isinstance(item, ast.AnnAssign):
            if isinstance(item.target, ast.Name) and item.target.id == attr:
                return True
    return False


def _defines_name_attr(cls: ast.ClassDef) -> bool:
    return _defines_attr(cls, "name")


def _project_ancestors(
    project: Project, cls_name: str, base: str = _BASE_CLASS
) -> List[str]:
    """Ancestors of ``cls_name`` in the scanned class graph (minus ``base``)."""
    graph = project.class_bases()
    out, frontier = [], list(graph.get(cls_name, ()))
    while frontier:
        name = frontier.pop()
        if name == base or name in out or name not in graph:
            continue
        out.append(name)
        frontier.extend(graph[name])
    return out


@register
class Arch01HookSurface(Rule):
    code = "ARCH01"
    summary = (
        "architecture classes must implement the RecoveryArchitecture surface "
        "faithfully (signatures, name, super().attach, no hook typos)"
    )

    def check(self, module: ModuleContext, project: Project) -> Iterator:
        if not _in_scope(module):
            return
        surface = _base_surface(project)
        if surface is None:
            return
        for cls in _architecture_classes(module, project):
            yield from self._check_class(module, project, cls, surface)

    def _check_class(self, module, project, cls, surface) -> Iterator:
        if not _defines_name_attr(cls) and not any(
            self._class_defines_name(project, ancestor)
            for ancestor in _project_ancestors(project, cls.name)
        ):
            yield module.finding(
                self.code,
                cls,
                f"{cls.name} does not set the 'name' class attribute "
                "(reports would all read 'bare')",
            )
        for item in cls.body:
            if not isinstance(item, ast.FunctionDef):
                continue
            if item.name in surface:
                expected = surface[item.name]
                actual = [arg.arg for arg in item.args.args]
                if item.args.vararg is None and actual != expected:
                    yield module.finding(
                        self.code,
                        item,
                        f"{cls.name}.{item.name} signature ({', '.join(actual)}) "
                        f"drifts from the base hook ({', '.join(expected)})",
                    )
                if item.name == "attach" and not self._calls_super_attach(item):
                    yield module.finding(
                        self.code,
                        item,
                        f"{cls.name}.attach must call super().attach(machine) "
                        "to bind the machine",
                    )
            elif not item.name.startswith("_"):
                close = [
                    hook
                    for hook in surface
                    if edit_distance(item.name, hook) <= 2
                ]
                if close:
                    yield module.finding(
                        self.code,
                        item,
                        f"{cls.name}.{item.name} looks like a typo of hook "
                        f"{close[0]!r} and would never be called",
                    )

    @staticmethod
    def _class_defines_name(project: Project, cls_name: str) -> bool:
        for mod in project.modules:
            if mod.tree is None:
                continue
            for node in ast.walk(mod.tree):
                if isinstance(node, ast.ClassDef) and node.name == cls_name:
                    return _defines_name_attr(node)
        return False

    @staticmethod
    def _calls_super_attach(func: ast.FunctionDef) -> bool:
        for node in ast.walk(func):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "attach"
                and isinstance(node.func.value, ast.Call)
                and isinstance(node.func.value.func, ast.Name)
                and node.func.value.func.id == "super"
            ):
                return True
        return False


_MANAGER_CLASS = "RecoveryManager"
_CAPABILITY_ATTRS = ("checkpoint_policy", "checkpoint_unsupported")


@register
class Arch03CheckpointCapability(Rule):
    code = "ARCH03"
    summary = (
        "RecoveryManager subclasses in repro.storage must declare a "
        "checkpoint_policy or an explicit checkpoint_unsupported opt-out"
    )

    def check(self, module: ModuleContext, project: Project) -> Iterator:
        if not module.in_package("repro.storage"):
            return
        descendants = project.descendants_of(_MANAGER_CLASS)
        for cls in ast.walk(module.tree):
            if not isinstance(cls, ast.ClassDef) or cls.name not in descendants:
                continue
            if self._declares_capability(cls):
                continue
            ancestors = _project_ancestors(project, cls.name, base=_MANAGER_CLASS)
            if any(
                self._ancestor_declares(project, ancestor)
                for ancestor in ancestors
            ):
                continue
            yield module.finding(
                self.code,
                cls,
                f"{cls.name} declares neither checkpoint_policy nor "
                "checkpoint_unsupported; every recovery manager must state "
                "its checkpoint capability (see docs/CHECKPOINT.md)",
            )

    @staticmethod
    def _declares_capability(cls: ast.ClassDef) -> bool:
        return any(_defines_attr(cls, attr) for attr in _CAPABILITY_ATTRS)

    @classmethod
    def _ancestor_declares(cls, project: Project, cls_name: str) -> bool:
        for mod in project.modules:
            if mod.tree is None:
                continue
            for node in ast.walk(mod.tree):
                if isinstance(node, ast.ClassDef) and node.name == cls_name:
                    return cls._declares_capability(node)
        return False


