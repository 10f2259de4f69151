"""Whole-program lint rules (R10-R12) over a ProjectContext.

These rules need facts no single file contains.  Rule ids are never
reused, so pragmas and baselines keep their meaning; the gap before
R10 is a retired rule (see ``docs/correctness.md``).

* **R10  inter-procedural unit flow** — the per-file R1 checks suffix
  discipline *within* an expression; R10 propagates units across call
  boundaries, so a function returning ``*_ns`` values cannot be bound
  to a ``*_cycles`` name in another file.
* **R11  determinism hazards** — iterating a ``set``/``frozenset`` (or
  an unsorted directory listing) has no defined order; where the loop
  body schedules events, records/exports data, or accumulates floats,
  that nondeterminism leaks into simulated results.
* **R12  instrumentation-name registry** — every name handed to a
  tracer/metrics/profiler API comes from the
  :mod:`repro.obs.names` catalogue; inline literals drift into typos
  that no reader of an exported trace or profile can tell apart from
  a second, distinct name.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set

from tools.lint.engine import Violation
from tools.lint.project import (
    CATALOGUE_MODULE,
    INSTRUMENTATION_APIS,
    METRIC_RECEIVERS,
    ModuleInfo,
    ProjectContext,
    _terminal_name,
)
from tools.lint.rules import _GOOD_SUFFIX_RE, _name_of, _unit_of


class ProjectRule:
    """A rule that checks the whole program, not one file."""

    id = "R?"
    title = ""
    summary = ""

    def violation(self, path: str, line: int, message: str) -> Violation:
        return Violation(rule=self.id, path=path, line=line, message=message)

    def check_project(self, project: ProjectContext) -> Iterator[Violation]:
        raise NotImplementedError


# ----------------------------------------------------------------------
# R10: inter-procedural unit flow
# ----------------------------------------------------------------------
class UnitFlowRule(ProjectRule):
    id = "R10"
    title = "inter-procedural unit flow"
    summary = (
        "unit suffixes survive call boundaries: a *_ns-returning "
        "function is never bound to a *_cycles name"
    )

    #: Identity-ish wrappers that preserve the unit of their argument.
    _WRAPPERS = ("float", "int", "round", "abs")
    #: Reductions whose unit is the (single) unit of their arguments.
    _SPREAD = ("max", "min", "sum")

    def check_project(self, project: ProjectContext) -> Iterator[Violation]:
        consensus = self._consensus(project)
        for module in project.modules:
            yield from self._check_functions(module, consensus)
            yield from self._check_assignments(module, consensus)

    # -- unit table ----------------------------------------------------
    def _consensus(self, project: ProjectContext) -> Dict[str, str]:
        """Bare function name -> unit every definition agrees on.

        Seeded by declared suffixes (``vector_transfer_ns`` returns
        ns by name), then closed twice over return expressions so
        un-suffixed helpers that forward a suffixed callee's result
        still carry its unit.  Conflicting same-named definitions
        resolve to "unknown" rather than guessing.
        """
        units: Dict[str, Optional[str]] = {}
        for name in project.functions_by_name:
            match = _GOOD_SUFFIX_RE.search(name)
            if match:
                units[name] = match.group(1)
        for _ in range(2):
            inferred: Dict[str, Optional[str]] = dict(units)
            for name, functions in project.functions_by_name.items():
                if units.get(name):
                    continue  # a declared suffix wins over inference
                returned: Set[str] = set()
                for fn in functions:
                    unit = self._return_unit(fn.node, units)
                    if unit:
                        returned.add(unit)
                if len(returned) == 1:
                    inferred[name] = returned.pop()
                elif returned:
                    inferred[name] = None
            units = inferred
        return {name: unit for name, unit in units.items() if unit}

    def _returns(self, node: ast.AST) -> Iterator[ast.AST]:
        """Return expressions of ``node``, not entering nested defs."""
        stack = list(ast.iter_child_nodes(node))
        while stack:
            current = stack.pop()
            if isinstance(
                current, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            if isinstance(current, ast.Return) and current.value is not None:
                yield current.value
            stack.extend(ast.iter_child_nodes(current))

    def _return_unit(
        self, node: ast.AST, consensus: Dict[str, Optional[str]]
    ) -> Optional[str]:
        units: Set[str] = set()
        for value in self._returns(node):
            unit = self._expr_unit(value, consensus)
            if unit:
                units.add(unit)
        return units.pop() if len(units) == 1 else None

    def _expr_unit(
        self, expr: ast.AST, consensus: Dict[str, Optional[str]]
    ) -> Optional[str]:
        unit = _unit_of(expr)
        if unit:
            return unit
        if isinstance(expr, ast.Call):
            callee = _terminal_name(expr.func)
            if callee in self._WRAPPERS and len(expr.args) == 1:
                return self._expr_unit(expr.args[0], consensus)
            if callee in self._SPREAD and expr.args:
                units = {
                    self._expr_unit(arg, consensus)
                    for arg in expr.args
                    if not isinstance(arg, ast.Starred)
                }
                units.discard(None)
                return units.pop() if len(units) == 1 else None
            if callee is not None:
                return consensus.get(callee)
            return None
        if isinstance(expr, ast.BinOp) and isinstance(
            expr.op, (ast.Add, ast.Sub)
        ):
            left = self._expr_unit(expr.left, consensus)
            right = self._expr_unit(expr.right, consensus)
            if left and right:
                return left if left == right else None
            return left or right
        if isinstance(expr, ast.UnaryOp):
            return self._expr_unit(expr.operand, consensus)
        if isinstance(expr, ast.IfExp):
            body = self._expr_unit(expr.body, consensus)
            orelse = self._expr_unit(expr.orelse, consensus)
            return body if body == orelse else None
        if isinstance(expr, ast.Subscript):
            return self._expr_unit(expr.value, consensus)
        return None

    # -- checks --------------------------------------------------------
    def _check_functions(
        self, module: ModuleInfo, consensus: Dict[str, str]
    ) -> Iterator[Violation]:
        for fn in module.functions:
            match = _GOOD_SUFFIX_RE.search(fn.name)
            if not match:
                continue
            declared = match.group(1)
            inferred = self._return_unit(fn.node, consensus)
            if inferred and inferred != declared:
                yield self.violation(
                    fn.path,
                    fn.line,
                    f"function '{fn.name}' is suffixed '_{declared}' but "
                    f"returns '_{inferred}' values; rename it or convert "
                    f"the result",
                )

    def _check_assignments(
        self, module: ModuleInfo, consensus: Dict[str, str]
    ) -> Iterator[Violation]:
        for node in module.ctx.index.nodes(ast.Assign, ast.AnnAssign):
            if isinstance(node, ast.Assign):
                if len(node.targets) != 1:
                    continue
                target = node.targets[0]
            else:
                target = node.target
            if node.value is None:
                continue
            target_name = _name_of(target)
            target_unit = _unit_of(target)
            if target_name is None or target_unit is None:
                continue
            value_unit = self._expr_unit(node.value, consensus)
            if value_unit and value_unit != target_unit:
                yield self.violation(
                    module.ctx.path,
                    node.lineno,
                    f"'{target_name}' (_{target_unit}) is assigned a "
                    f"'_{value_unit}' expression; convert through the "
                    f"timing model instead",
                )


# ----------------------------------------------------------------------
# R11: determinism hazards in simulated-time packages
# ----------------------------------------------------------------------
class DeterminismHazardRule(ProjectRule):
    id = "R11"
    title = "determinism hazards"
    summary = (
        "no scheduling/recording/accumulating iteration over sets or "
        "unsorted directory listings in repro.{sim,ssd,core,obs}"
    )

    SCOPE = (
        ("repro", "sim"),
        ("repro", "ssd"),
        ("repro", "core"),
        ("repro", "obs"),
    )
    _SET_CALLS = ("set", "frozenset")
    _DIR_CALLS = ("rglob", "glob", "iterdir", "listdir", "scandir")
    #: Calls whose order-sensitivity makes an unordered loop a bug:
    #: scheduling primitives, record/export sinks, and metric updates.
    _HAZARD_CALLS = frozenset(
        {
            "process",
            "schedule",
            "schedule_at",
            "timeout",
            "all_of",
            "serve",
            "acquire",
            "release",
            "succeed",
            "put",
            "append",
            "appendleft",
            "extend",
            "write",
            "add_span",
            "measure",
            "record_service",
            "record_busy",
            "record_queue_depth",
            "observe",
            "inc",
        }
    )

    def check_project(self, project: ProjectContext) -> Iterator[Violation]:
        for module in project.modules:
            if not any(module.ctx.in_module(*parts) for parts in self.SCOPE):
                continue
            index = module.ctx.index
            for loop in index.nodes(ast.For, ast.AsyncFor):
                reason = self._unordered_reason(loop.iter, loop, module)
                if reason is None:
                    continue
                hazard = self._body_hazard(loop)
                if hazard is None:
                    continue
                yield self.violation(
                    module.ctx.path,
                    loop.lineno,
                    f"iteration over {reason} {hazard}; iterate a "
                    f"sorted() or otherwise ordered sequence",
                )
            for comp in index.nodes(
                ast.GeneratorExp, ast.ListComp, ast.SetComp
            ):
                parent = index.parent(comp)
                if not (
                    isinstance(parent, ast.Call)
                    and _terminal_name(parent.func) in ("sum", "fsum")
                ):
                    continue
                for generator in comp.generators:
                    reason = self._unordered_reason(
                        generator.iter, comp, module
                    )
                    if reason is not None:
                        yield self.violation(
                            module.ctx.path,
                            comp.lineno,
                            f"sum() over {reason}; float accumulation "
                            f"order must be deterministic",
                        )

    def _unordered_reason(
        self, iter_expr: ast.AST, site: ast.AST, module: ModuleInfo
    ) -> Optional[str]:
        if isinstance(iter_expr, (ast.Set, ast.SetComp)):
            return "a set expression"
        if isinstance(iter_expr, ast.Call):
            callee = _terminal_name(iter_expr.func)
            if isinstance(iter_expr.func, ast.Name) and callee in self._SET_CALLS:
                return f"{callee}(...)"
            if callee in self._DIR_CALLS:
                return f"an unsorted {callee}() listing"
            return None
        if isinstance(iter_expr, ast.Name):
            binding = self._local_binding(iter_expr.id, site, module)
            if binding is not None and not isinstance(binding, ast.Name):
                return self._unordered_reason(binding, site, module)
        return None

    @staticmethod
    def _local_binding(
        name: str, site: ast.AST, module: ModuleInfo
    ) -> Optional[ast.AST]:
        """Sole local assignment of ``name`` in the enclosing function."""
        index = module.ctx.index
        scope = index.enclosing(site, ast.FunctionDef, ast.AsyncFunctionDef)
        if scope is None:
            return None
        bindings = [
            stmt.value
            for stmt in ast.walk(scope)
            if isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and stmt.targets[0].id == name
        ]
        return bindings[0] if len(bindings) == 1 else None

    def _body_hazard(self, loop: ast.AST) -> Optional[str]:
        for stmt in loop.body:
            for node in ast.walk(stmt):
                if isinstance(node, (ast.Yield, ast.YieldFrom, ast.Await)):
                    return "yields control to the scheduler"
                if isinstance(node, ast.AugAssign) and isinstance(
                    node.op, (ast.Add, ast.Sub)
                ):
                    target = _name_of(node.target) or "a value"
                    return f"accumulates into '{target}'"
                if isinstance(node, ast.Call):
                    callee = _terminal_name(node.func)
                    if callee in self._HAZARD_CALLS:
                        return f"calls {callee}()"
        return None


# ----------------------------------------------------------------------
# R12: instrumentation names come from the catalogue
# ----------------------------------------------------------------------
class NameRegistryRule(ProjectRule):
    id = "R12"
    title = "instrumentation names come from the catalogue"
    summary = (
        "tracer/metrics/profiler name literals live in "
        "repro/obs/names.py; inline strings and orphan catalogue "
        "entries are flagged"
    )

    #: Positional index of the ``name`` parameter at resource
    #: construction sites (Server(sim, name, ...); Resource(sim,
    #: capacity, name, ...)).
    _CONSTRUCTOR_NAME_POS = {"Server": 1, "Resource": 2}

    def check_project(self, project: ProjectContext) -> Iterator[Violation]:
        referenced: Set[str] = set()
        for module in project.modules:
            self._note_references(module, referenced)
        for module in project.modules:
            if not module.ctx.in_module("repro"):
                continue
            if module.ctx.in_module("repro", "obs"):
                continue  # the catalogue and the APIs themselves
            yield from self._check_module(project, module)
        catalogue = project.modules_by_dotted.get(CATALOGUE_MODULE)
        if catalogue is not None:
            yield from self._orphans(catalogue, referenced)

    @staticmethod
    def _note_references(module: ModuleInfo, referenced: Set[str]) -> None:
        aliases: Set[str] = set()
        for local, (source, original) in module.import_from.items():
            if source == CATALOGUE_MODULE:
                referenced.add(original)
            if f"{source}.{original}" == CATALOGUE_MODULE:
                aliases.add(local)
        for alias, source in module.import_module.items():
            if source == CATALOGUE_MODULE:
                aliases.add(alias)
        if not aliases:
            return
        for node in module.ctx.index.nodes(ast.Attribute):
            if isinstance(node.value, ast.Name) and node.value.id in aliases:
                referenced.add(node.attr)

    def _check_module(
        self, project: ProjectContext, module: ModuleInfo
    ) -> Iterator[Violation]:
        for call in module.ctx.index.nodes(ast.Call):
            if not isinstance(call.func, ast.Attribute):
                callee = _terminal_name(call.func)
                name_pos = self._CONSTRUCTOR_NAME_POS.get(callee)
                if name_pos is None:
                    continue
                for facet, expr in (
                    ("name", self._call_arg(call, name_pos, "name")),
                    ("kind", self._call_arg(call, None, "kind")),
                ):
                    yield from self._check_expr(
                        project, module, call, f"{callee} {facet}", expr
                    )
                continue
            attr = call.func.attr
            spec = INSTRUMENTATION_APIS.get(attr)
            if spec is None:
                continue
            if attr in ("counter", "gauge", "histogram"):
                receiver = _terminal_name(call.func.value)
                if receiver not in METRIC_RECEIVERS:
                    continue
            name_pos, name_kw, kind_pos, kind_kw = spec
            yield from self._check_expr(
                project,
                module,
                call,
                f"{attr} name",
                self._call_arg(call, name_pos, name_kw),
            )
            if kind_pos is not None:
                yield from self._check_expr(
                    project,
                    module,
                    call,
                    f"{attr} kind",
                    self._call_arg(call, kind_pos, kind_kw),
                )

    def _check_expr(
        self,
        project: ProjectContext,
        module: ModuleInfo,
        call: ast.Call,
        what: str,
        expr: Optional[ast.AST],
    ) -> Iterator[Violation]:
        if expr is None:
            return
        kind, source, value = project.constant_origin(expr, module)
        line = getattr(expr, "lineno", call.lineno)
        if kind == "literal":
            yield self.violation(
                module.ctx.path,
                line,
                f"hardcoded {what} '{value}'; add it to "
                f"repro/obs/names.py and reference the catalogue",
            )
        elif kind == "module-const" and source != CATALOGUE_MODULE:
            yield self.violation(
                module.ctx.path,
                line,
                f"{what} constant comes from '{source}'; instrumentation "
                f"names live in repro/obs/names.py",
            )

    @staticmethod
    def _call_arg(
        call: ast.Call, position: Optional[int], keyword: Optional[str]
    ) -> Optional[ast.AST]:
        if position is not None and position < len(call.args):
            arg = call.args[position]
            return None if isinstance(arg, ast.Starred) else arg
        if keyword is not None:
            for kw in call.keywords:
                if kw.arg == keyword:
                    return kw.value
        return None

    def _orphans(
        self, catalogue: ModuleInfo, referenced: Set[str]
    ) -> Iterator[Violation]:
        for stmt in getattr(catalogue.ctx.tree, "body", ()):
            targets: List[ast.AST] = []
            if isinstance(stmt, ast.Assign):
                targets = list(stmt.targets)
            elif isinstance(stmt, ast.AnnAssign):
                targets = [stmt.target]
            for target in targets:
                if (
                    isinstance(target, ast.Name)
                    and target.id in catalogue.constants
                    and target.id not in referenced
                ):
                    yield self.violation(
                        catalogue.ctx.path,
                        stmt.lineno,
                        f"catalogue name '{target.id}' is never "
                        f"referenced; remove it or wire up the emitting "
                        f"site",
                    )


PROJECT_RULES = (
    UnitFlowRule(),
    DeterminismHazardRule(),
    NameRegistryRule(),
)

PROJECT_RULES_BY_ID = {rule.id: rule for rule in PROJECT_RULES}
