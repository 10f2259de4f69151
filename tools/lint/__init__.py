"""AST-based domain lint pass for the RM-SSD reproduction.

Run it as ``python -m tools.lint src tests benchmarks`` (or the
installed ``rmssd-lint`` script).  Per-file rules R1–R8 live in
:mod:`tools.lint.rules`; whole-program rules R10–R12
(inter-procedural unit flow, determinism hazards, name registry) live
in :mod:`tools.lint.rules_project` and run over the
:class:`tools.lint.project.ProjectContext` built from every file in
one pass.  The rule catalogue and the pragma syntax are documented in
``docs/correctness.md``; the pass also runs as a tier-1 pytest test
(``tests/test_lint.py``) so the tree can never drift out of
compliance.  ``--baseline`` turns the pass into a ratchet: recorded
violations are tolerated, new ones fail.
"""

from tools.lint.engine import (
    Violation,
    build_contexts,
    invalid_paths,
    iter_python_files,
    lint_contexts,
    lint_paths,
    lint_source,
    parse_context,
    parse_pragmas,
)
from tools.lint.rules import ALL_RULES, RULES_BY_ID
from tools.lint.rules_project import PROJECT_RULES, PROJECT_RULES_BY_ID

__all__ = [
    "ALL_RULES",
    "RULES_BY_ID",
    "PROJECT_RULES",
    "PROJECT_RULES_BY_ID",
    "Violation",
    "build_contexts",
    "invalid_paths",
    "iter_python_files",
    "lint_contexts",
    "lint_paths",
    "lint_source",
    "parse_context",
    "parse_pragmas",
]
