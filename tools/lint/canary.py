"""Injected-drift canary for the R9 instrumentation-parity rule.

``python -m tools.lint.canary`` proves the whole-program analysis is
actually live, not vacuously green: it copies ``src/`` to a scratch
directory, asserts the **unmutated** copy is R9-clean, then deletes
exactly one fast-path profiler record in the copy and asserts R9
trips with a violation naming the now DES-only record.

One contract is exercised, the one place where each path still
records for itself: the lookup (the ``record_busy`` call that closes
a die's busy interval in the step loop,
:func:`repro.ssd.fastpath._step_reads`).
The serving pipeline needs no canary: all four of its observers are
read from the run's tables in one place after the path branch
(``PipelineSimulator._observe``), so there is no second feed to lose.

If a refactor ever blinds R9 — a renamed root, a broken call-graph
edge, an over-wide provenance union — the clean/mutated runs stop
differing and this exits 1, failing ``tools/check.sh`` before the
blind spot can hide a real parity regression.
"""

from __future__ import annotations

import ast
import shutil
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

from tools.lint.engine import Violation, lint_paths
from tools.lint.rules_project import PROJECT_RULES_BY_ID


@dataclass(frozen=True)
class Mutation:
    """One fast-path emission to delete in the scratch copy of src/."""

    label: str
    #: File (relative to src/) holding the emission.
    file: Path
    #: Function containing the call to delete.
    function: str
    #: Method name of the call statement to replace with ``pass``.
    call: str
    #: The DES-side value R9 must report as missing from the fast path.
    token: str


MUTATION = Mutation(
    label="lookup",
    file=Path("repro") / "ssd" / "fastpath.py",
    function="_step_reads",
    call="record_busy",
    token="die",
)


def _find_call_statement(tree: ast.AST, mutation: Mutation) -> Optional[ast.stmt]:
    """The statement in ``mutation.function`` carrying the target call."""
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef) or fn.name != mutation.function:
            continue
        for node in ast.walk(fn):
            if (
                isinstance(node, ast.Expr)
                and isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Attribute)
                and node.value.func.attr == mutation.call
            ):
                return node
    return None


def mutate(target: Path, mutation: Mutation) -> None:
    """Replace the target profiler record with ``pass`` in place."""
    source = target.read_text(encoding="utf-8")
    statement = _find_call_statement(ast.parse(source), mutation)
    if statement is None:
        raise SystemExit(
            f"canary: no {mutation.call}() statement in "
            f"{mutation.function}() of {target} — the mutation target "
            f"moved; update tools/lint/canary.py"
        )
    lines = source.splitlines(keepends=True)
    first = statement.lineno - 1
    last = (statement.end_lineno or statement.lineno) - 1
    indent = " " * statement.col_offset
    lines[first : last + 1] = [indent + "pass\n"]
    target.write_text("".join(lines), encoding="utf-8")


def _r9(paths: List[str]) -> List[Violation]:
    return lint_paths(paths, rules=(), project_rules=(PROJECT_RULES_BY_ID["R9"],))


def run(src_dir: str = "src") -> int:
    src, mutation = Path(src_dir), MUTATION
    if not (src / mutation.file).is_file():
        print(f"canary: {src / mutation.file} not found", file=sys.stderr)
        return 1
    with tempfile.TemporaryDirectory(prefix="rmssd-lint-canary-") as scratch:
        # The copy keeps a trailing ``src`` component so module paths
        # (anchored at the last ``src`` segment) resolve identically.
        copy = Path(scratch) / "src"
        shutil.copytree(src, copy)
        clean = _r9([str(copy)])
        if clean:
            print("canary: scratch copy is not R9-clean before mutation:")
            for violation in clean:
                print("  " + violation.render())
            return 1
        mutate(copy / mutation.file, mutation)
        mutated = _r9([str(copy)])
    named = [v for v in mutated if mutation.token in v.message]
    if not named:
        print(
            f"canary: deleted the {mutation.label} fast-path "
            f"{mutation.call} record but R9 reported no violation "
            f"naming '{mutation.token}' — the parity analysis has "
            f"gone blind"
        )
        for violation in mutated:
            print("  " + violation.render())
        return 1
    print(
        f"canary: R9 fired on injected {mutation.label} drift "
        f"({len(named)} violation(s) naming '{mutation.token}'); "
        f"parity analysis is live"
    )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(run(*sys.argv[1:]))
