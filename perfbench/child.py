"""Child process of the benchmark: one set-up probe, or one workload's measured loop.

    child.py setup|measure WORKLOAD SEED SECONDS TRACE SIZE SPAWNED

``run.py`` starts it with ``PYTHONPATH`` pointing at the source tree and
passes in SPAWNED its ``time.monotonic()`` reading taken just before the
spawn; the system-wide monotonic clock makes that reading comparable here,
so set-up time covers interpreter start, ``import resbdy`` and generator
construction. The last line of standard output is one JSON object.
"""

import json
import resource
import sys
import time


def main(argv):
    mode, name, seed, seconds, trace, size, spawned = argv
    import workloads  # imports resbdy
    gens = workloads.generators(name)
    setup_s = time.monotonic() - float(spawned)
    if mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return

    import mpmath
    import numpy
    import scipy

    import layers

    params = (workloads.SMOKE if size == "smoke" else workloads.FULL)[name]
    run = workloads.WORKLOADS[name]
    workloads.warm_up(name, gens, params)
    tracer = layers.Tracer()
    # a traced run alternates untraced and traced passes: the difference of
    # their wall times is the tracing overhead
    modes = (False, True) if trace == "1" else (False,)
    passes = []
    start = time.perf_counter()
    rounds = 0
    while True:
        for traced in modes:
            out = workloads.Outcome()
            # each pass starts at a fresh process's precision: the library
            # leaves mp.dps wherever its last high-precision solve set it
            mpmath.mp.dps = 15
            tracer.reset()
            if traced:
                tracer.install()
            try:
                w0, c0 = time.perf_counter(), time.process_time()
                run(gens, params, int(seed), out)
                wall, cpu = time.perf_counter() - w0, time.process_time() - c0
            finally:
                tracer.uninstall()
            record = {"traced": traced, "wall_s": wall, "cpu_s": cpu,
                      "checks": out.checks, "correct_digits": out.correct_digits,
                      "digest": out.digest}
            if traced:
                record["layers"] = tracer.layer_metrics()
            passes.append(record)
        rounds += 1
        # start another round only if one of average length still ends
        # within the measuring time
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / rounds > float(seconds):
            break

    print(json.dumps({
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__, "mpmath": mpmath.__version__,
                     "mpmath_backend": mpmath.libmp.BACKEND},
        "passes": passes,
    }))


if __name__ == "__main__":
    main(sys.argv[1:])
