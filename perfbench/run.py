"""Benchmark of resbdy's heavy acceptance workloads.

    python3 perfbench/run.py --workload triage|paths|embedding|all \\
        [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. The code under test is ``src/`` of this tree,
loaded through ``PYTHONPATH``; nothing is installed. Each run starts fresh
child processes: ``SETUP_PROBES`` set-up probes, whose median is
``setup_s``, then one measuring child that repeats the workload in a closed
loop for ``--seconds``: it runs at least one pass, and another while one of
average length still ends in time. With ``--trace 1`` the child
alternates untraced and traced passes and the per-layer metrics are
reported instead of the end-to-end ones. The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it are for people. Metric names and units
come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("triage", "paths", "embedding")
DEFAULT_SEED = 20240817       # the acceptance suite's SEED
SETUP_PROBES = 6
RUN_LIMIT_S = 170.0           # one workload's run, set-up probes included
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    pass


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="small sizes for the instrumentation self-test")
    return ap.parse_args(argv)


def nproc():
    return len(os.sched_getaffinity(0))


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in THREAD_VARS:
        env[var] = str(nproc())
    return env


def run_child(args, deadline):
    """Run child.py to completion and return its last output line as JSON."""
    cmd = [sys.executable, str(HERE / "child.py"), *args, repr(time.monotonic())]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"child {args[:2]} passed the run time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"child {args[:2]} exited with code {proc.returncode}")
    return json.loads(out.decode().splitlines()[-1])


def code_hash():
    """sha256 of the library and benchmark sources: the identity of the code."""
    h = hashlib.sha256()
    files = sorted((ROOT / "src").rglob("*.py")) + sorted(HERE.glob("*.py"))
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def digest_seen_before(key, digest):
    """Compare with the digest stored by an earlier run of the same code.

    Returns None on the first run of ``key`` (nothing to compare), else
    whether the digests agree.
    """
    store = OUT / "digests.json"
    seen = json.loads(store.read_text()) if store.exists() else {}
    if key in seen:
        return seen[key] == digest
    seen[key] = digest
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(seen, indent=1, sort_keys=True))
    os.replace(tmp, store)
    return None


def measure(name, args, deadline):
    size = "smoke" if args.smoke else "full"
    common = [name, str(args.seed), str(args.seconds), str(args.trace), size]
    # half the set-up probes run before the measuring child and half after,
    # so their median spans the run rather than one moment of the host
    setups = [run_child(["setup", *common], deadline)["setup_s"]
              for _ in range(SETUP_PROBES // 2)]
    data = run_child(["measure", *common], deadline)
    setups += [run_child(["setup", *common], deadline)["setup_s"]
               for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    passes = data["passes"]
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]

    checks = [tuple(c) for p in passes for c in p["checks"]]
    digests = sorted({p["digest"] for p in passes})
    checks.append(("numeric results repeat within the run", len(digests) == 1))
    same = digest_seen_before(f"{code_hash()}:{name}:{args.seed}:{size}", digests[0])
    if same is not None:
        checks.append(("numeric results repeat earlier runs of this code", same))

    wall = statistics.median(p["wall_s"] for p in plain)
    values = {
        "wall_s": wall,
        "cpu_s": statistics.median(p["cpu_s"] for p in plain),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": data["peak_rss_mb"],
        "correct_digits": min(p["correct_digits"] for p in passes),
    }
    if traced:
        for key in traced[0]["layers"]:
            values[key] = statistics.median(p["layers"][key] for p in traced)
        values["trace.overhead_s"] = statistics.median(
            p["wall_s"] for p in traced) - wall
    failed = [c for c, ok in checks if not ok]
    values["checks_failed_frac"] = len(failed) / len(checks)
    return {
        "workload": name, "seed": args.seed, "trace": args.trace, "size": size,
        "passes": len(plain), "traced_passes": len(traced),
        "attempted": len(checks), "failed": failed, "digest": digests[0],
        "values": values, "setup_probes": setups,
        "pass_walls": [(p["traced"], p["wall_s"]) for p in passes],
        "environment": {"nproc": nproc(), "cpu_model": cpu_model(),
                        "blas_threads": nproc(), **data["versions"],
                        "seed": args.seed},
    }


def metric_table(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def report(result, table):
    """Print the people's lines for one workload; return its JSON metrics."""
    v = result["values"]
    print(f"environment: {json.dumps(result['environment'])}")
    print(f"workload {result['workload']}: seed {result['seed']}, "
          f"{result['passes']} untraced and {result['traced_passes']} traced passes, "
          f"digest {result['digest'][:16]}")
    metrics = {}
    for entry in table:
        name = entry["name"]
        if name not in v:
            raise BenchError(f"metric {name} was not measured")
        metrics[name] = {"value": v[name], "unit": entry["unit"]}
        print(f"  {name:30s} {v[name]:<22.10g} {entry['unit']:8s} "
              f"({entry['better']} is better)")
    print(f"  {'checks_failed_frac':30s} {v['checks_failed_frac']:<22.10g} "
          f"{'ratio':8s} ({len(result['failed'])} of {result['attempted']} "
          f"checks failed)")
    for name, times in sorted(Counter(result["failed"]).items()):
        print(f"  FAILED {times}x: {name}")
    return metrics


def main(argv):
    args = parse_args(argv)
    if not (ROOT / "src" / "resbdy" / "__init__.py").is_file():
        print(f"no source tree at {ROOT / 'src' / 'resbdy'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    table = metric_table(args.trace)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results, metrics = [], {}
    for name in names:
        result = measure(name, args, time.monotonic() + RUN_LIMIT_S)
        (OUT / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(result, indent=1))
        shown = report(result, table)
        results.append(result)
        if len(names) == 1:
            metrics = shown
        else:
            metrics.update({f"{name}.{k}": m for k, m in shown.items()})
    failed = sum(len(r["failed"]) for r in results)
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        sys.exit(1)
