"""Whole-program context for the cross-file lint rules (R10-R12).

One :class:`ProjectContext` is built over every parsed file of a lint
run (sharing the :class:`~tools.lint.engine.NodeIndex` trees — each
file is parsed and walked once) and gives the project rules a
**module symbol table**: per file, the module-level string constants,
the imports, and the functions and methods; across files, functions by
bare name, modules by dotted name, and :meth:`ProjectContext.
constant_origin`, which says where a name argument's string comes from.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from tools.lint.engine import FileContext

#: The instrumentation-name catalogue module (lint rule R12).
CATALOGUE_MODULE = "repro.obs.names"

#: Tracer/profiler/metrics call signatures: API attr ->
#: (name-arg position, name keyword, kind-arg position, kind keyword).
#: ``None`` marks "no kind facet".
INSTRUMENTATION_APIS: Dict[str, Tuple[int, str, Optional[int], Optional[str]]] = {
    "add_span": (0, "name", None, None),
    "measure": (1, "name", None, None),
    "record_service": (0, "name", 4, "kind"),
    "record_busy": (0, "name", 3, "kind"),
    "record_queue_depth": (0, "name", None, None),
    "counter": (0, "name", None, None),
    "gauge": (0, "name", None, None),
    "histogram": (0, "name", None, None),
    # SLOEngine.objective(name, metric, ...): both strings are
    # instrumentation names — the objective's own name and the metric
    # it watches — so both ride the catalogue discipline (the metric
    # goes through the kind slot of the spec tuple).
    "objective": (0, "name", 1, "metric"),
}

#: Metric-factory calls only count with one of these receivers, so
#: ``np.histogram(...)`` is not mistaken for a metrics emission.
METRIC_RECEIVERS = ("metrics", "registry")


def _terminal_name(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def module_dotted(path: str) -> str:
    """Best-effort dotted module name for a file path.

    Anchors at the last ``src`` segment (``.../src/repro/x.py`` ->
    ``repro.x``) so absolute paths and scratch copies resolve the same
    imports; falls back to ``tests``/``benchmarks`` anchors, then the
    full path.
    """
    parts = list(Path(path).with_suffix("").parts)
    if parts and parts[0] in ("/", "\\"):
        parts = parts[1:]
    for anchor in ("src",):
        if anchor in parts:
            cut = len(parts) - 1 - parts[::-1].index(anchor)
            parts = parts[cut + 1 :]
            break
    else:
        for anchor in ("tests", "benchmarks"):
            if anchor in parts:
                cut = len(parts) - 1 - parts[::-1].index(anchor)
                parts = parts[cut:]
                break
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


@dataclass
class FunctionInfo:
    """One module-level function or method."""

    name: str
    module: "ModuleInfo"
    node: ast.AST

    @property
    def path(self) -> str:
        return self.module.ctx.path

    @property
    def line(self) -> int:
        return self.node.lineno


@dataclass
class ModuleInfo:
    """Symbol table of one file."""

    ctx: FileContext
    dotted: str
    #: Module-level NAME -> string literal value.
    constants: Dict[str, str] = field(default_factory=dict)
    #: local name -> (source module dotted, original name) from
    #: ``from X import Y [as Z]``.
    import_from: Dict[str, Tuple[str, str]] = field(default_factory=dict)
    #: local alias -> module dotted from ``import X [as Z]``.
    import_module: Dict[str, str] = field(default_factory=dict)
    functions: List[FunctionInfo] = field(default_factory=list)


class ProjectContext:
    """Module symbol tables over a set of files."""

    def __init__(self, contexts: Sequence[FileContext]) -> None:
        self.modules: List[ModuleInfo] = []
        self.modules_by_dotted: Dict[str, ModuleInfo] = {}
        self.functions_by_name: Dict[str, List[FunctionInfo]] = {}
        for ctx in contexts:
            self._index_module(ctx)

    def _index_module(self, ctx: FileContext) -> None:
        module = ModuleInfo(ctx=ctx, dotted=module_dotted(ctx.path))
        tree = ctx.tree
        for stmt in getattr(tree, "body", ()):
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target = stmt.targets[0]
                if isinstance(target, ast.Name) and isinstance(
                    stmt.value, ast.Constant
                ) and isinstance(stmt.value.value, str):
                    module.constants[target.id] = stmt.value.value
            elif isinstance(stmt, ast.AnnAssign):
                if isinstance(stmt.target, ast.Name) and isinstance(
                    stmt.value, ast.Constant
                ) and isinstance(stmt.value.value, str):
                    module.constants[stmt.target.id] = stmt.value.value
        for node in ctx.index.nodes(ast.Import):
            for alias in node.names:
                module.import_module[alias.asname or alias.name] = alias.name
        for node in ctx.index.nodes(ast.ImportFrom):
            source = node.module or ""
            if node.level:
                package = module.dotted.split(".")
                package = package[: max(0, len(package) - node.level)]
                source = ".".join(package + ([source] if source else []))
            for alias in node.names:
                if alias.name == "*":
                    continue
                module.import_from[alias.asname or alias.name] = (
                    source,
                    alias.name,
                )
        for stmt in getattr(tree, "body", ()):
            members = stmt.body if isinstance(stmt, ast.ClassDef) else (stmt,)
            for member in members:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    fn = FunctionInfo(name=member.name, module=module, node=member)
                    module.functions.append(fn)
                    self.functions_by_name.setdefault(member.name, []).append(fn)
        self.modules.append(module)
        self.modules_by_dotted.setdefault(module.dotted, module)

    def constant_origin(
        self, expr: ast.AST, module: ModuleInfo
    ) -> Tuple[str, Optional[str], Optional[str]]:
        """Where a name-argument expression's string comes from.

        Returns ``(kind, source module dotted, value)`` with kind one
        of ``"literal"`` (inline string), ``"module-const"`` (a
        module-level constant, possibly imported), or ``"dynamic"``.
        """
        if isinstance(expr, ast.Constant):
            if isinstance(expr.value, str):
                return "literal", module.dotted, expr.value
            return "dynamic", None, None
        if isinstance(expr, ast.Name):
            if expr.id in module.constants:
                return "module-const", module.dotted, module.constants[expr.id]
            origin = module.import_from.get(expr.id)
            if origin is not None:
                source, original = origin
                target = self.modules_by_dotted.get(source)
                value = target.constants.get(original) if target else None
                if value is not None or target is None:
                    return "module-const", source, value
                # Imported name that is not a constant in its module
                # (a function, class, or submodule) is not a string.
                return "dynamic", None, None
            return "dynamic", None, None
        if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name):
            alias = expr.value.id
            source = module.import_module.get(alias)
            if source is None:
                origin = module.import_from.get(alias)
                if origin is not None:
                    # ``from repro.obs import names`` -> submodule alias.
                    source = f"{origin[0]}.{origin[1]}"
            if source is not None:
                target = self.modules_by_dotted.get(source)
                value = target.constants.get(expr.attr) if target else None
                return "module-const", source, value
        return "dynamic", None, None
