"""Tier-1 gate: the whole tree passes the domain lint pass.

Runs the same pass as ``python -m tools.lint src tests benchmarks``;
any new violation fails the suite, so the invariants in
``docs/correctness.md`` cannot silently rot.
"""

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from tools.lint import ALL_RULES, PROJECT_RULES, lint_paths  # noqa: E402
from tools.lint.baseline import (  # noqa: E402
    load_baseline,
    partition,
    write_baseline,
)
from tools.lint.cli import main  # noqa: E402
from tools.lint.engine import Violation  # noqa: E402

LINTED = [str(REPO_ROOT / d) for d in ("src", "tests", "benchmarks")]


def test_tree_is_lint_clean():
    violations = lint_paths(LINTED)
    assert not violations, "lint violations:\n" + "\n".join(
        v.render() for v in violations
    )


def test_cli_exits_zero_on_clean_tree(capsys):
    # The whole-tree pass is test_tree_is_lint_clean's; the exit code
    # and summary line need only a clean subtree.
    assert main([str(REPO_ROOT / "src" / "repro" / "sim")]) == 0
    captured = capsys.readouterr()
    assert "0 violations" in captured.err


def test_cli_exits_nonzero_on_violation(tmp_path, capsys):
    bad = tmp_path / "bench_bad.py"
    bad.write_text("print('hello')\n")
    assert main([str(bad)]) == 1
    captured = capsys.readouterr()
    assert "R6" in captured.out


def test_cli_rejects_empty_path_set(tmp_path, capsys):
    assert main([str(tmp_path)]) == 2


def test_cli_lists_all_six_rules(capsys):
    assert main(["--list-rules"]) == 0
    captured = capsys.readouterr()
    for rule in ALL_RULES:
        assert rule.id in captured.out
    assert len(ALL_RULES) >= 6


def test_cli_lists_project_rules_with_summaries(capsys):
    assert main(["--list-rules"]) == 0
    captured = capsys.readouterr()
    for rule in PROJECT_RULES:
        assert rule.id in captured.out
        assert rule.summary
        assert rule.summary in captured.out
    assert len(PROJECT_RULES) == 3


def test_cli_rejects_bad_path_naming_it(capsys):
    missing = str(REPO_ROOT / "no_such_dir" / "nope.py")
    assert main([missing, str(REPO_ROOT / "src")]) == 2
    captured = capsys.readouterr()
    assert missing in captured.err


def test_cli_rejects_non_python_file_argument(tmp_path, capsys):
    stray = tmp_path / "notes.txt"
    stray.write_text("not python\n")
    assert main([str(stray)]) == 2
    captured = capsys.readouterr()
    assert str(stray) in captured.err


def test_tools_package_itself_compiles_clean():
    violations = lint_paths([str(REPO_ROOT / "tools")])
    assert not violations, "\n".join(v.render() for v in violations)


# ----------------------------------------------------------------------
# Baseline ratchet
# ----------------------------------------------------------------------
def _bench_with_prints(tmp_path, count):
    bad = tmp_path / "bench_legacy.py"
    bad.write_text("".join(f"print({i})\n" for i in range(count)))
    return bad


def test_baseline_tolerates_recorded_violations(tmp_path, capsys):
    bad = _bench_with_prints(tmp_path, 1)
    baseline = tmp_path / "baseline.json"
    assert main([str(bad), "--write-baseline", str(baseline)]) == 0
    assert main([str(bad), "--baseline", str(baseline)]) == 0
    captured = capsys.readouterr()
    assert "tolerated" in captured.err


def test_baseline_fails_on_new_violation(tmp_path, capsys):
    bad = _bench_with_prints(tmp_path, 1)
    baseline = tmp_path / "baseline.json"
    assert main([str(bad), "--write-baseline", str(baseline)]) == 0
    bad.write_text(bad.read_text() + "print('drift')\n")
    assert main([str(bad), "--baseline", str(baseline)]) == 1
    captured = capsys.readouterr()
    assert "R6" in captured.out


def test_baseline_reports_stale_entries(tmp_path, capsys):
    bad = _bench_with_prints(tmp_path, 1)
    baseline = tmp_path / "baseline.json"
    assert main([str(bad), "--write-baseline", str(baseline)]) == 0
    bad.write_text("x = 1\n")
    assert main([str(bad), "--baseline", str(baseline)]) == 0
    captured = capsys.readouterr()
    assert "stale" in captured.err


def test_baseline_is_a_multiset(tmp_path):
    # Two identical violations need two entries: one recorded print
    # does not blanket-tolerate every future print with the same text.
    bad = _bench_with_prints(tmp_path, 2)
    entries = [
        Violation("R6", str(bad), 1, "msg"),
        Violation("R6", str(bad), 2, "msg"),
    ]
    baseline_path = tmp_path / "baseline.json"
    write_baseline(str(baseline_path), entries[:1])
    new, tolerated, stale = partition(
        entries, load_baseline(str(baseline_path))
    )
    assert len(tolerated) == 1 and len(new) == 1 and not stale


def test_bad_baseline_file_exits_two(tmp_path, capsys):
    bad = _bench_with_prints(tmp_path, 1)
    baseline = tmp_path / "baseline.json"
    baseline.write_text("[]\n")
    assert main([str(bad), "--baseline", str(baseline)]) == 2
    captured = capsys.readouterr()
    assert "bad baseline" in captured.err


def test_committed_baseline_is_clean():
    # The repo carries no tolerated debt: the committed ratchet file is
    # empty, so `--baseline` is exactly as strict as the plain run.
    committed = load_baseline(
        str(REPO_ROOT / "tools" / "lint" / "baseline.json")
    )
    assert sum(committed.values()) == 0

