"""Golden CLI reports: every solve in these runs in mpmath or Fraction
arithmetic, and no number passes through BLAS, so the report bytes do not
depend on the BLAS build or the CPU.

Regenerate with ``PYTHONPATH=src python tests/test_golden.py`` and list the
regeneration, with the values that moved, in CHANGES.md.
"""

import json
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
    "gauss-green": ["gauss-green", *LADDER, "--x", "2", "--levels", "8",
                    "--lane", "mp"],
    "monopole-doubling": ["monopole", "--network", "integer-lattice", "--dim", "1",
                          "--levels", "10", "--schedule", "doubling",
                          "--divergence-threshold", "20", "--lane", "mp"],
}


# the records that fail in the reports whose "pass" is false: each stops at
# its level budget before its limit converges
FAILING = {"decompose": ["energy_kernel(x=2, bc=free)"],
           "kernel": ["energy_kernel(x=2, bc=free)"],
           "monopole": ["monopole_energy(x=0)"]}


def write_report(name, path):
    main(COMMANDS[name] + ["--out", str(path)])


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_report_matches_golden_bytes(name, tmp_path):
    out = tmp_path / f"{name}.json"
    write_report(name, out)
    assert out.read_bytes() == (GOLDEN_DIR / f"{name}.json").read_bytes()


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_golden_pass_is_the_conjunction_of_its_checks(name):
    doc = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    assert doc["checks"]
    assert doc["pass"] is all(c["passed"] for c in doc["checks"])
    failed = [c["name"] for c in doc["checks"] if not c["passed"]]
    assert failed == FAILING.get(name, [])


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in (sys.argv[1:] or sorted(COMMANDS)):
        write_report(name, GOLDEN_DIR / f"{name}.json")
