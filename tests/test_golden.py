"""Golden CLI output: every subcommand's JSON on the three fixtures.

Each subcommand runs at its default flags with `--format json` on GX, GY
and GW, from the repository root so the `graph` field is the relative path
`fixtures/<name>.ug`.  Stdout must match `tests/golden/<fixture>_<command>.json`
byte for byte.  To regenerate after an intended output change:

    PYTHONPATH=src python tests/test_golden.py
"""

import io
import json
import os
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from ultragraph.cli import main

REPO = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
FIXTURES = ("GX", "GY", "GW")
COMMANDS = (
    "validate",
    "lattice",
    "paths",
    "semigroup",
    "groupoid",
    "ck",
    "analyze",
    "skew",
)
CASES = [(f, c) for f in FIXTURES for c in COMMANDS]


def render(fixture: str, command: str):
    """Exit code and stdout of one CLI run, taken from the repository root."""
    buf = io.StringIO()
    cwd = os.getcwd()
    os.chdir(REPO)
    try:
        with redirect_stdout(buf):
            code = main([command, f"fixtures/{fixture}.ug", "--format", "json"])
    finally:
        os.chdir(cwd)
    return code, buf.getvalue()


def golden_path(fixture: str, command: str) -> Path:
    return GOLDEN / f"{fixture}_{command}.json"


@pytest.mark.parametrize("fixture,command", CASES)
def test_cli_json_matches_golden(fixture, command):
    code, out = render(fixture, command)
    assert out == golden_path(fixture, command).read_text()
    passed = all(c["pass"] for c in json.loads(out)["checks"])
    assert code == (0 if passed else 1)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for fixture, command in CASES:
        _, out = render(fixture, command)
        golden_path(fixture, command).write_text(out)
    print(f"wrote {len(CASES)} files to {GOLDEN}", file=sys.stderr)
