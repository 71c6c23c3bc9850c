"""Golden CLI reports: every number in these comes from mpmath or Fraction
arithmetic, so the report bytes do not depend on BLAS or the CPU.

Regenerate with ``PYTHONPATH=src python tests/test_golden.py`` and list the
regeneration, with the values that moved, in CHANGES.md.
"""

import json
import os
import pathlib
import sys

import pytest

from resbdy.cli import main

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
LADDER = ["--network", "ladder", "--alpha", "5", "--beta", "0.9"]
TRIANGLE = json.dumps({"edges": [[0, 1, 1], [1, 2, 1], [0, 2, 1]], "origin": 0})

COMMANDS = {
    "kernel": ["kernel", *LADDER, "--x", "2", "--levels", "12", "--lane", "mp"],
    "resist": ["resist", "--network", TRIANGLE, "--x", "1", "--y", "2",
               "--lane", "fraction"],
    "decompose": ["decompose", *LADDER, "--x", "2", "--levels", "12",
                  "--tol", "1e-6", "--lane", "mp"],
    "onb": ["onb", *LADDER, "--N", "8", "--lane", "mp"],
    "boundary-sum": ["boundary-sum", *LADDER, "--x", "2", "--levels", "10",
                     "--lane", "mp"],
    "paths": ["paths", *LADDER, "--horizon", "24", "--levels", "12", "--lane", "mp"],
    "monopole": ["monopole", "--network", "binary-tree", "--levels", "8",
                 "--schedule", "linear", "--tol", "1e-2", "--lane", "mp"],
}


def write_report(name, path):
    main(COMMANDS[name] + ["--out", str(path)])


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_report_matches_golden_bytes(name, tmp_path, monkeypatch):
    monkeypatch.delenv("RESBDY_THREADS", raising=False)
    out = tmp_path / f"{name}.json"
    write_report(name, out)
    assert out.read_bytes() == (GOLDEN_DIR / f"{name}.json").read_bytes()


if __name__ == "__main__":
    os.environ.pop("RESBDY_THREADS", None)
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in (sys.argv[1:] or sorted(COMMANDS)):
        write_report(name, GOLDEN_DIR / f"{name}.json")
