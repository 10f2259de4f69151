"""Lint ratchet: tolerate recorded violations, fail only on new ones.

A baseline file is a JSON document listing violations that predate a
rule (or a rule tightening) and are accepted for now::

    {
      "version": 1,
      "entries": [
        {"rule": "R11", "path": "src/repro/ssd/x.py", "message": "..."}
      ]
    }

The ratchet semantics of :func:`partition`:

* a violation matching a baseline entry (same rule, path and message;
  line numbers are deliberately ignored so unrelated edits do not
  invalidate the baseline) is **tolerated** — reported as informational
  but does not fail the run;
* a violation with no matching entry is **new** — the run fails;
* a baseline entry no match consumed is **stale** — the debt was paid
  down, and the run prints a reminder to re-run ``--write-baseline``
  so the ratchet only ever tightens.

Matching is multiset-style: two identical violations need two entries.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from tools.lint.engine import Violation

#: Identity of one violation for ratchet matching (no line number).
BaselineKey = Tuple[str, str, str]


def violation_key(violation: Violation) -> BaselineKey:
    return (
        violation.rule,
        Path(violation.path).as_posix(),
        violation.message,
    )


def load_baseline(path: str) -> Counter:
    """Parse a baseline file into a multiset of tolerated keys."""
    raw = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(raw, dict) or "entries" not in raw:
        raise ValueError(
            f"{path}: baseline must be an object with an 'entries' list"
        )
    keys: Counter = Counter()
    for entry in raw["entries"]:
        try:
            keys[(entry["rule"], entry["path"], entry["message"])] += 1
        except (TypeError, KeyError) as err:
            raise ValueError(
                f"{path}: malformed baseline entry {entry!r}"
            ) from err
    return keys


def write_baseline(path: str, violations: Sequence[Violation]) -> None:
    """Record the current violations as the new tolerated set."""
    entries: List[Dict[str, str]] = [
        {"rule": rule, "path": vpath, "message": message}
        for rule, vpath, message in sorted(
            violation_key(v) for v in violations
        )
    ]
    document = {"version": 1, "entries": entries}
    Path(path).write_text(
        json.dumps(document, indent=2) + "\n", encoding="utf-8"
    )


def partition(
    violations: Sequence[Violation], baseline: Counter
) -> Tuple[List[Violation], List[Violation], List[BaselineKey]]:
    """Split violations into ``(new, tolerated)`` plus stale keys.

    Each baseline entry absorbs at most one matching violation; stale
    keys are entries left over after every violation was matched.
    """
    budget = Counter(baseline)
    new: List[Violation] = []
    tolerated: List[Violation] = []
    for violation in violations:
        key = violation_key(violation)
        if budget[key] > 0:
            budget[key] -= 1
            tolerated.append(violation)
        else:
            new.append(violation)
    stale = sorted(budget.elements())
    return new, tolerated, stale
