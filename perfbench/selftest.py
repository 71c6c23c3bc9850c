"""Self-test of the benchmark's instrumentation, at smoke sizes.

    python3 perfbench/selftest.py

Checks three things and exits 0 when all hold:

* the tracer replaces every copy of each wrapped function, in every
  ``resbdy`` module that imported it by name, and restores them all;
* an untraced and a traced run of each workload emit every metric that
  ``BENCHMARK.json`` names, with its unit, and nothing else;
* each workload's expected layer records spans.

The workloads' own checks are not judged here: some acceptance tolerances
cannot be met at smoke sizes (Z^1's E(h) <= 1e-6 needs radius 2^19).
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

# layer metrics that must be nonzero in a traced smoke run of each workload
EXPECTED_LAYERS = {
    "triage": ["energy.views", "energy.view_s"],
    "paths": ["hifi.hi_solves", "hifi.hi_solve_s"],
    "embedding": ["onb.kernels", "onb.build_s", "wiener.draws", "wiener.sample_s"],
}
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def coverage_failures():
    import layers

    failures = []
    solve, energy = layers.solver.solve_dipole_level, layers.energy.energy
    tracer = layers.Tracer()
    tracer.install()
    try:
        failures += [f"{m}.{a} is not wrapped" for m, a in tracer.unwrapped()]
        for fn, holders in ((solve, ["solver", "royden", "onb", "boundary", "walk"]),
                            (energy, ["solver", "royden", "onb", "boundary"])):
            patched = tracer.patched(fn)
            failures += [f"{fn.__name__} is not wrapped in resbdy.{m}"
                         for m in holders if f"resbdy.{m}" not in patched]
    finally:
        tracer.uninstall()
    if layers.royden.solve_dipole_level is not solve or layers.onb.energy is not energy:
        failures.append("uninstall did not restore the library functions")
    return failures


def run_failures(workload, trace, table):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=170)
    where = f"{workload} trace={trace}"
    if proc.returncode != 0:
        return [f"{where}: exit code {proc.returncode}: {proc.stderr[-500:]}"]
    result = json.loads(proc.stdout.splitlines()[-1])
    if set(result) != RESULT_KEYS:
        return [f"{where}: result keys {sorted(result)}"]
    metrics = result["metrics"]
    failures = []
    expected = {e["name"]: e["unit"] for e in table}
    if set(metrics) != set(expected):
        failures.append(f"{where}: metrics differ from BENCHMARK.json: "
                        f"{sorted(set(metrics) ^ set(expected))}")
    for name, unit in expected.items():
        got = metrics.get(name, {})
        if got.get("unit") != unit or not isinstance(got.get("value"), (int, float)):
            failures.append(f"{where}: {name} emitted as {got}")
    if trace:
        failures += [f"{where}: layer metric {name} is zero"
                     for name in EXPECTED_LAYERS[workload]
                     if not metrics.get(name, {}).get("value")]
    return failures


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = coverage_failures()
    for workload in EXPECTED_LAYERS:
        for trace, table in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            failures += run_failures(workload, trace, table)
    for f in failures:
        print(f"FAIL {f}")
    print("selftest:", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
