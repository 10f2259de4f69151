"""Tier-1 test configuration.

Sanitizer mode (:mod:`repro.sim.sanitizer`) is on by default for the
whole suite: every ``Simulator()`` constructed without an explicit
``sanitize=`` argument runs with invariant checks enabled.  The
sanitizer is observation-only (pinned by
``tests/test_sanitizer_property.py``), so this changes no numbers —
it just turns silent invariant violations into hard failures.

Opt out for a single run with ``RMSSD_SANITIZE=0 pytest ...``.
"""

import os

import pytest

os.environ.setdefault("RMSSD_SANITIZE", "1")


@pytest.fixture(params=["missing", "not-json", "not-an-object"])
def hostile_json_file(request, tmp_path):
    """Path of an input a JSON-reading tool must refuse cleanly: a
    missing file, text that is not JSON, a JSON value not an object."""
    path = tmp_path / f"{request.param}.json"
    if request.param == "not-json":
        path.write_text("this is not JSON {")
    elif request.param == "not-an-object":
        path.write_text("[1, 2]")
    return str(path)
