"""Golden outputs of ``derive``, ``verify``, ``solve``, ``integrals`` and
``killing`` on every shipped fixture, and of ``simulate`` on the shipped
oscillator and case4 runs.

Each file under ``tests/golden/`` holds one run: its arguments, exit code,
stdout, stderr and ``--report`` (without the path-dependent ``problem``
field).  A refactor meant to leave outputs unchanged must reproduce them
byte for byte.  The drift floats of ``simulate`` are computed with the C
library's ``math`` functions, as its trajectories are, so they hold on
hosts whose libm rounds as this one's does.  After an intended output
change, regenerate them with

    python tests/test_golden.py
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from noetherkit import fixture_path
from noetherkit.cli import main

GOLDEN = Path(__file__).with_name("golden")
FIXTURES = sorted(p.name for p in fixture_path("case1.json").parent.glob("*.json"))
RUNS = [
    *((command, f) for command in ("derive", "verify", "solve", "integrals", "killing")
      for f in FIXTURES),
    ("killing", "ndim.json", "--degree", "2"),
    ("simulate", "oscillator.json"),
    ("simulate", "case4.json"),
]


def golden_name(argv) -> str:
    command, fixture, *extra = argv
    return "_".join([command, Path(fixture).stem, *(a.lstrip("-") for a in extra)]) + ".json"


def record(argv) -> str:
    """One run of the CLI on a shipped fixture, serialized as its golden file."""
    command, fixture, *extra = argv
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "report.json"
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, str(fixture_path(fixture)), *extra, "--report", str(path)])
        report = json.loads(path.read_text()) if path.exists() else None
    if report is not None:
        del report["problem"]
    doc = {"argv": list(argv), "exit": code, "stdout": out.getvalue(),
           "stderr": err.getvalue(), "report": report}
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("argv", RUNS, ids=golden_name)
def test_matches_golden(argv):
    assert record(argv) == (GOLDEN / golden_name(argv)).read_text()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for argv in RUNS:
        (GOLDEN / golden_name(argv)).write_text(record(argv))
