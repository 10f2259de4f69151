"""Whole-program context for the cross-file lint rules (R9-R12).

One :class:`ProjectContext` is built over every parsed file of a lint
run (sharing the :class:`~tools.lint.engine.NodeIndex` trees — each
file is parsed and walked once) and gives the project rules:

* a **module symbol table** — module-level string constants, imports,
  classes, and functions per file;
* a **def/use index** — functions by bare name, attribute references
  by name;
* a **call graph** — name-based and deliberately over-approximate: a
  call to ``x.foo()`` reaches every project function named ``foo``.
  Over-approximation is sound for the parity rule because both
  execution paths resolve through the same map, so spurious targets
  land in *both* closures;
* **string-literal provenance** — ``self.kind`` inside a method
  resolves to the set of literals passed for that constructor
  parameter at every (production) construction site, so dynamically
  named emissions like ``Server.serve``'s profiler record still
  compare against the fast path's literal kinds.

Unresolvable strings become the :data:`DYNAMIC` sentinel, which the
rules ignore when diffing emission sets (an unknown value can never
prove one-sidedness).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from tools.lint.engine import FileContext

#: Sentinel for a string value static analysis cannot resolve.
DYNAMIC = "<dynamic>"

#: The instrumentation-name catalogue module (lint rule R12).
CATALOGUE_MODULE = "repro.obs.names"

#: The I/O accounting class whose field flow R9 compares.
STATS_CLASS = "IOStatistics"

#: Tracer/profiler/metrics call signatures: API attr ->
#: (name-arg position, name keyword, kind-arg position, kind keyword,
#: default kind).  ``None`` marks "no kind facet".
INSTRUMENTATION_APIS: Dict[str, Tuple[int, str, Optional[int], Optional[str], Optional[str]]] = {
    "add_span": (0, "name", None, None, None),
    "measure": (1, "name", None, None, None),
    "record_service": (0, "name", 4, "kind", "server"),
    "record_busy": (0, "name", 3, "kind", "resource"),
    "record_queue_depth": (0, "name", None, None, None),
    "counter": (0, "name", None, None, None),
    "gauge": (0, "name", None, None, None),
    "histogram": (0, "name", None, None, None),
    # SLOEngine.objective(name, metric, ...): both strings are
    # instrumentation names — the objective's own name and the metric
    # it watches — so both ride the catalogue discipline (the metric
    # goes through the kind slot of the spec tuple).
    "objective": (0, "name", 1, "metric", None),
}

#: Metric-factory calls only count with one of these receivers, so
#: ``np.histogram(...)`` is not mistaken for a metrics emission.
METRIC_RECEIVERS = ("metrics", "registry")

#: API attr -> comparison group used by the parity rule.
API_GROUPS = {
    "add_span": "span",
    "measure": "span",
    "counter": "metric",
    "gauge": "metric",
    "histogram": "metric",
    "record_service": "record_service",
    "record_busy": "record_busy",
    "record_queue_depth": "record_queue_depth",
    "objective": "slo",
}


def _terminal_name(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _annotation_class(node: Optional[ast.AST]) -> Optional[str]:
    """Class name carried by a type annotation, best effort.

    ``Simulator`` -> ``Simulator``; ``Optional["VectorCache"]`` ->
    ``VectorCache``; container annotations (``List[Resource]``) yield
    ``None`` — the annotated *value* is the container, not the class.
    """
    if node is None:
        return None
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value.split("[")[0].split(".")[-1].strip(" '\"") or None
    if isinstance(node, ast.Subscript):
        base = _annotation_class(node.value)
        if base in ("Optional", "Final", "Annotated"):
            inner = node.slice
            if isinstance(inner, ast.Tuple) and inner.elts:
                inner = inner.elts[0]
            return _annotation_class(inner)
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


@dataclass(frozen=True)
class Emission:
    """One instrumentation value emitted at one call site."""

    api: str  #: API attr, e.g. ``add_span`` / ``record_busy``.
    facet: str  #: ``"name"`` or ``"kind"``.
    value: str  #: Resolved string, or :data:`DYNAMIC`.
    path: str
    line: int

    @property
    def group(self) -> str:
        return API_GROUPS[self.api]


@dataclass
class FunctionInfo:
    """One module-level function or method."""

    name: str
    qualname: str
    module: "ModuleInfo"
    cls: Optional["ClassInfo"]
    node: ast.AST
    #: Call edges as ``(receiver class or None, method name)``: a
    #: resolved receiver class narrows the edge to that class's method;
    #: ``None`` falls back to every project function of that name.
    calls: Set[Tuple[Optional[str], str]] = field(default_factory=set)
    emissions: List[Emission] = field(default_factory=list)
    stats_fields: Set[str] = field(default_factory=set)

    @property
    def path(self) -> str:
        return self.module.ctx.path

    @property
    def line(self) -> int:
        return self.node.lineno


@dataclass
class ClassInfo:
    """Constructor string-literal provenance of one class."""

    name: str
    module: "ModuleInfo"
    node: ast.ClassDef
    #: ``__init__`` parameter names after ``self``, in order.
    init_params: List[str] = field(default_factory=list)
    #: Parameter -> string default (only string defaults recorded).
    init_defaults: Dict[str, str] = field(default_factory=dict)
    #: Instance attr -> ("param", name) | ("const", value) | ("dynamic",).
    attr_source: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    #: Parameter -> strings observed at production construction sites.
    param_values: Dict[str, Set[str]] = field(default_factory=dict)
    #: Instance attr -> class name (from ``__init__`` annotations and
    #: direct constructions), used to type call receivers.
    attr_types: Dict[str, str] = field(default_factory=dict)
    #: Method name -> FunctionInfo defined on this class.
    methods: Dict[str, "FunctionInfo"] = field(default_factory=dict)

    def resolve_attr(self, attr: str) -> Optional[FrozenSet[str]]:
        """Possible string values of ``self.<attr>``; None if untracked."""
        source = self.attr_source.get(attr)
        if source is None:
            return None
        if source[0] == "const":
            return frozenset((source[1],))
        if source[0] == "param":
            param = source[1]
            values = set(self.param_values.get(param, ()))
            if not values:
                default = self.init_defaults.get(param)
                values = {default} if default is not None else {DYNAMIC}
            return frozenset(values)
        return frozenset((DYNAMIC,))


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
    classes: List[ClassInfo] = field(default_factory=list)


class ProjectContext:
    """Symbol tables, call graph, and provenance over a set of files."""

    def __init__(self, contexts: Sequence[FileContext]) -> None:
        self.contexts = list(contexts)
        self.modules: List[ModuleInfo] = []
        self.modules_by_dotted: Dict[str, ModuleInfo] = {}
        self.functions_by_name: Dict[str, List[FunctionInfo]] = {}
        self.classes_by_name: Dict[str, List[ClassInfo]] = {}
        #: IOStatistics method name -> counter fields it mutates.
        self.stats_method_fields: Dict[str, Set[str]] = {}
        for ctx in self.contexts:
            self._index_module(ctx)
        self._collect_construction_sites()
        self._collect_stats_field_flow()
        for module in self.modules:
            for fn in module.functions:
                self._analyze_function(fn)

    # ------------------------------------------------------------------
    # Pass A: per-module symbol tables
    # ------------------------------------------------------------------
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
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._register_function(module, stmt, cls=None)
            elif isinstance(stmt, ast.ClassDef):
                info = self._register_class(module, stmt)
                for member in stmt.body:
                    if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        self._register_function(module, member, cls=info)
        self.modules.append(module)
        self.modules_by_dotted.setdefault(module.dotted, module)

    def _register_function(
        self, module: ModuleInfo, node: ast.AST, cls: Optional[ClassInfo]
    ) -> None:
        qual = f"{module.dotted}.{cls.name + '.' if cls else ''}{node.name}"
        fn = FunctionInfo(
            name=node.name, qualname=qual, module=module, cls=cls, node=node
        )
        module.functions.append(fn)
        self.functions_by_name.setdefault(node.name, []).append(fn)
        if cls is not None:
            cls.methods.setdefault(node.name, fn)

    def _register_class(self, module: ModuleInfo, node: ast.ClassDef) -> ClassInfo:
        info = ClassInfo(name=node.name, module=module, node=node)
        init = next(
            (
                member
                for member in node.body
                if isinstance(member, ast.FunctionDef)
                and member.name == "__init__"
            ),
            None,
        )
        if init is not None:
            args = init.args
            params = [a.arg for a in args.posonlyargs + args.args]
            if params and params[0] in ("self", "cls"):
                params = params[1:]
            info.init_params = params
            defaults = args.defaults
            for param, default in zip(params[len(params) - len(defaults):], defaults):
                if isinstance(default, ast.Constant) and isinstance(
                    default.value, str
                ):
                    info.init_defaults[param] = default.value
            for kwarg, default in zip(args.kwonlyargs, args.kw_defaults):
                if isinstance(default, ast.Constant) and isinstance(
                    default.value, str
                ):
                    info.init_defaults[kwarg.arg] = default.value
            param_types: Dict[str, str] = {}
            for arg in (
                list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
            ):
                annotated = _annotation_class(arg.annotation)
                if annotated is not None:
                    param_types[arg.arg] = annotated
            for stmt in ast.walk(init):
                if not isinstance(stmt, ast.Assign):
                    continue
                for target in stmt.targets:
                    if not (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        continue
                    value = stmt.value
                    if isinstance(value, ast.Name) and value.id in params:
                        info.attr_source[target.attr] = ("param", value.id)
                    elif isinstance(value, ast.Constant) and isinstance(
                        value.value, str
                    ):
                        info.attr_source[target.attr] = ("const", value.value)
                    else:
                        info.attr_source.setdefault(target.attr, ("dynamic",))
                    typed = self._value_class(value, param_types)
                    if typed is not None:
                        info.attr_types.setdefault(target.attr, typed)
        module.classes.append(info)
        self.classes_by_name.setdefault(node.name, []).append(info)
        return info

    def _value_class(
        self, value: ast.AST, param_types: Dict[str, str]
    ) -> Optional[str]:
        """Class name an ``__init__`` assignment's value instantiates."""
        if isinstance(value, ast.Name):
            return param_types.get(value.id)
        if isinstance(value, ast.Call):
            callee = _terminal_name(value.func)
            if callee and callee[:1].isupper():
                return callee
            return None
        if isinstance(value, ast.IfExp):
            return self._value_class(value.body, param_types) or self._value_class(
                value.orelse, param_types
            )
        if isinstance(value, ast.BoolOp):
            for operand in value.values:
                typed = self._value_class(operand, param_types)
                if typed is not None:
                    return typed
        return None

    # ------------------------------------------------------------------
    # Pass B: constructor string provenance
    # ------------------------------------------------------------------
    def _collect_construction_sites(self) -> None:
        """Bind string args at every substrate construction site.

        Only modules under ``repro/ssd`` and ``repro/sim`` contribute —
        the device substrate is the layer the fast path mirrors, so its
        construction sites define what ``self.kind``/``self.name`` can
        be *on the lookup path*.  Ad-hoc constructions in tests or
        host-side models (e.g. the host-I/O ``Resource`` in
        ``repro.core.device``, the serving pipeline's stage servers)
        would otherwise pollute the provenance the parity rule
        compares with kinds that path never emits.
        """
        for module in self.modules:
            if not (
                module.ctx.in_module("repro", "ssd")
                or module.ctx.in_module("repro", "sim")
            ):
                continue
            for call in module.ctx.index.nodes(ast.Call):
                callee = _terminal_name(call.func)
                for cls in self.classes_by_name.get(callee, ()):
                    self._bind_construction(module, call, cls)

    def _bind_construction(
        self, module: ModuleInfo, call: ast.Call, cls: ClassInfo
    ) -> None:
        bound: Set[str] = set()
        for position, arg in enumerate(call.args):
            if isinstance(arg, ast.Starred):
                return
            if position < len(cls.init_params):
                param = cls.init_params[position]
                bound.add(param)
                self._add_param_values(module, cls, param, arg)
        for keyword in call.keywords:
            if keyword.arg is None:
                return
            bound.add(keyword.arg)
            self._add_param_values(module, cls, keyword.arg, keyword.value)
        for param, default in cls.init_defaults.items():
            if param not in bound:
                cls.param_values.setdefault(param, set()).add(default)

    def _add_param_values(
        self, module: ModuleInfo, cls: ClassInfo, param: str, arg: ast.AST
    ) -> None:
        values = self.resolve_str(arg, module, cls=None)
        if values:
            cls.param_values.setdefault(param, set()).update(values)

    # ------------------------------------------------------------------
    # String resolution
    # ------------------------------------------------------------------
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

    def resolve_str(
        self,
        expr: ast.AST,
        module: ModuleInfo,
        cls: Optional[ClassInfo],
    ) -> FrozenSet[str]:
        """Possible string values of ``expr``; DYNAMIC marks unknowns."""
        kind, _, value = self.constant_origin(expr, module)
        if kind != "dynamic" and value is not None:
            return frozenset((value,))
        if isinstance(expr, ast.Attribute):
            receiver = expr.value
            if (
                isinstance(receiver, ast.Name)
                and receiver.id == "self"
                and cls is not None
            ):
                resolved = cls.resolve_attr(expr.attr)
                if resolved is not None:
                    return resolved
            # Unknown receiver: if the receiver *variable* is named
            # after a project class (``server.kind`` -> Server), use
            # that class's provenance; otherwise union every class
            # tracking this attribute.  Both are sound for parity —
            # symmetric inputs resolve through the same tables.
            candidates = self._receiver_classes(receiver, expr.attr)
            union: Set[str] = set()
            for info in candidates:
                resolved = info.resolve_attr(expr.attr)
                if resolved:
                    union.update(resolved)
            if union:
                union.add(DYNAMIC)
                return frozenset(union)
        if isinstance(expr, ast.Constant) and not isinstance(expr.value, str):
            return frozenset()
        return frozenset((DYNAMIC,))

    def _attr_classes(self, attr: str) -> Iterator[ClassInfo]:
        for classes in self.classes_by_name.values():
            for info in classes:
                if attr in info.attr_source:
                    yield info

    def _receiver_classes(
        self, receiver: ast.AST, attr: str
    ) -> List[ClassInfo]:
        """Classes a ``receiver.attr`` read may refer to."""
        recv_name = _terminal_name(receiver)
        if recv_name:
            wanted = recv_name.lower()
            matched = [
                info
                for name, infos in self.classes_by_name.items()
                if name.lstrip("_").lower() == wanted
                for info in infos
                if attr in info.attr_source
            ]
            if matched:
                return matched
        return list(self._attr_classes(attr))

    # ------------------------------------------------------------------
    # Pass C: IOStatistics field flow
    # ------------------------------------------------------------------
    def _collect_stats_field_flow(self) -> None:
        writes: Dict[str, Set[str]] = {}
        calls: Dict[str, Set[str]] = {}
        for info in self.classes_by_name.get(STATS_CLASS, ()):
            for member in info.node.body:
                if not isinstance(member, ast.FunctionDef):
                    continue
                fields: Set[str] = set()
                called: Set[str] = set()
                for node in ast.walk(member):
                    targets: List[ast.AST] = []
                    if isinstance(node, ast.Assign):
                        targets = list(node.targets)
                    elif isinstance(node, ast.AugAssign):
                        targets = [node.target]
                    elif isinstance(node, ast.Call):
                        if (
                            isinstance(node.func, ast.Attribute)
                            and isinstance(node.func.value, ast.Name)
                            and node.func.value.id == "self"
                        ):
                            called.add(node.func.attr)
                    for target in targets:
                        if (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                        ):
                            fields.add(target.attr)
                writes.setdefault(member.name, set()).update(fields)
                calls.setdefault(member.name, set()).update(called)
        # Close over self-calls (record_vector_read delegating to
        # record_vector_reads and the like); two passes suffice for the
        # shallow delegation the stats class uses.
        for _ in range(2):
            for method, called in calls.items():
                for other in called:
                    writes.setdefault(method, set()).update(writes.get(other, ()))
        self.stats_method_fields = writes

    # ------------------------------------------------------------------
    # Pass D: per-function emissions, callees, stats touches
    # ------------------------------------------------------------------
    def _analyze_function(self, fn: FunctionInfo) -> None:
        module = fn.module
        bindings = self._local_bindings(fn)
        annotations = self._param_annotations(fn)
        for node in ast.walk(fn.node):
            if not isinstance(node, ast.Call):
                continue
            callee = _terminal_name(node.func)
            if callee is not None:
                receiver_cls = None
                if isinstance(node.func, ast.Attribute):
                    receiver_cls = self._expr_class(
                        node.func.value, fn, bindings, annotations
                    )
                fn.calls.add((receiver_cls, callee))
            if not isinstance(node.func, ast.Attribute):
                continue
            attr = node.func.attr
            if attr in self.stats_method_fields and attr.startswith("record_"):
                receiver = _terminal_name(node.func.value)
                if receiver == "stats":
                    fn.stats_fields.update(self.stats_method_fields[attr])
                continue
            spec = INSTRUMENTATION_APIS.get(attr)
            if spec is None:
                continue
            if attr in ("counter", "gauge", "histogram"):
                receiver = _terminal_name(node.func.value)
                if receiver not in METRIC_RECEIVERS:
                    continue
            name_pos, name_kw, kind_pos, kind_kw, kind_default = spec
            name_expr = self._call_arg(node, name_pos, name_kw)
            if name_expr is not None:
                for value in self.resolve_str(name_expr, module, fn.cls):
                    fn.emissions.append(
                        Emission(attr, "name", value, fn.path, name_expr.lineno)
                    )
            if kind_pos is None:
                continue
            kind_expr = self._call_arg(node, kind_pos, kind_kw)
            if kind_expr is None:
                if kind_default is not None:
                    fn.emissions.append(
                        Emission(attr, "kind", kind_default, fn.path, node.lineno)
                    )
                continue
            for value in self.resolve_str(kind_expr, module, fn.cls):
                fn.emissions.append(
                    Emission(attr, "kind", value, fn.path, kind_expr.lineno)
                )

    @staticmethod
    def _call_arg(
        call: ast.Call, position: int, keyword: Optional[str]
    ) -> Optional[ast.AST]:
        if position < len(call.args):
            arg = call.args[position]
            return None if isinstance(arg, ast.Starred) else arg
        if keyword is not None:
            for kw in call.keywords:
                if kw.arg == keyword:
                    return kw.value
        return None

    # ------------------------------------------------------------------
    # Receiver typing (what narrows the name-based call graph)
    # ------------------------------------------------------------------
    @staticmethod
    def _local_bindings(fn: FunctionInfo) -> Dict[str, ast.AST]:
        """Sole-assignment local name -> value expression, per function."""
        bindings: Dict[str, ast.AST] = {}
        ambiguous: Set[str] = set()
        for node in ast.walk(fn.node):
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
            ):
                name = node.targets[0].id
                if name in bindings:
                    ambiguous.add(name)
                else:
                    bindings[name] = node.value
        for name in ambiguous:
            bindings.pop(name, None)
        return bindings

    @staticmethod
    def _param_annotations(fn: FunctionInfo) -> Dict[str, str]:
        args = fn.node.args
        annotations: Dict[str, str] = {}
        for arg in (
            list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        ):
            annotated = _annotation_class(arg.annotation)
            if annotated is not None:
                annotations[arg.arg] = annotated
        return annotations

    def _expr_class(
        self,
        expr: Optional[ast.AST],
        fn: FunctionInfo,
        bindings: Dict[str, ast.AST],
        annotations: Dict[str, str],
        depth: int = 0,
    ) -> Optional[str]:
        """Class name of an expression's value, from annotations."""
        if expr is None or depth > 4:
            return None
        if isinstance(expr, ast.Name):
            if expr.id == "self":
                return fn.cls.name if fn.cls is not None else None
            if expr.id in annotations:
                return annotations[expr.id]
            binding = bindings.get(expr.id)
            if binding is not None and not isinstance(binding, ast.Name):
                return self._expr_class(
                    binding, fn, bindings, annotations, depth + 1
                )
            return None
        if isinstance(expr, ast.Attribute):
            base = self._expr_class(
                expr.value, fn, bindings, annotations, depth + 1
            )
            if base is not None:
                for info in self.classes_by_name.get(base, ()):
                    attr_cls = info.attr_types.get(expr.attr)
                    if attr_cls is not None:
                        return attr_cls
            return None
        if isinstance(expr, ast.Call):
            callee = _terminal_name(expr.func)
            if callee in self.classes_by_name:
                return callee
            return None
        if isinstance(expr, ast.IfExp):
            return self._expr_class(
                expr.body, fn, bindings, annotations, depth + 1
            ) or self._expr_class(
                expr.orelse, fn, bindings, annotations, depth + 1
            )
        if isinstance(expr, ast.BoolOp):
            for operand in expr.values:
                typed = self._expr_class(
                    operand, fn, bindings, annotations, depth + 1
                )
                if typed is not None:
                    return typed
        return None

    # ------------------------------------------------------------------
    # Call-graph reachability
    # ------------------------------------------------------------------
    def functions_named(self, name: str) -> List[FunctionInfo]:
        return self.functions_by_name.get(name, [])

    def call_targets(
        self, receiver_cls: Optional[str], name: str
    ) -> List[FunctionInfo]:
        """Functions a ``(receiver class, method name)`` edge reaches.

        A typed receiver narrows the edge to that class's own method;
        an untyped receiver — or a class that does not define the
        method (inheritance, mixins) — falls back to every project
        function with the bare name.
        """
        if receiver_cls is not None:
            narrowed = [
                info.methods[name]
                for info in self.classes_by_name.get(receiver_cls, ())
                if name in info.methods
            ]
            if narrowed:
                return narrowed
        return self.functions_by_name.get(name, [])

    def reachable(self, roots: Sequence[FunctionInfo]) -> List[FunctionInfo]:
        """Closure of ``roots`` under the receiver-typed call graph."""
        seen: Set[int] = set()
        out: List[FunctionInfo] = []
        frontier = list(roots)
        while frontier:
            fn = frontier.pop()
            if id(fn) in seen:
                continue
            seen.add(id(fn))
            out.append(fn)
            for receiver_cls, name in fn.calls:
                frontier.extend(self.call_targets(receiver_cls, name))
        return out
