"""Per-layer spans for the benchmark, recorded from outside the library.

Each layer's public functions are replaced by timing wrappers while a traced
iteration runs and restored afterwards, so ``src/resbdy`` is never edited.
A function imported by name into several modules (``energy``,
``solve_dipole_level``) is replaced in every ``resbdy`` module that holds it;
a copy left unwrapped would drop its spans without any error.

Spans are aggregated in memory per layer key: call count, total time and
self time (span time minus the time of its direct child spans). A call made
while a span of the same key is open (``kronecker_sum_check`` calling
``entries_E_via_evaluation``) is not timed again, so no interval counts twice.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

import mpmath

# modules by full name: the package attribute ``resbdy.energy`` is the function
_hifi, boundary, energy, network, onb, royden, solver, walk, wiener = (
    importlib.import_module(f"resbdy.{name}") for name in (
        "_hifi", "boundary", "energy", "network", "onb", "royden", "solver",
        "walk", "wiener"))


def _count_ball(counts, result, args, kwargs):
    counts["network.ball_vertices"] += result.n


def _count_view(counts, result, args, kwargs):
    counts["energy.view_vertices"] += len(args[0].vertices)


def _count_solve(counts, result, args, kwargs):
    counts["solver.window_vertices"] += len(result.window.vertices)
    counts["solver.ambient_vertices"] += result.net.n


def _count_lane(counts, result, args, kwargs):
    counts["solver.float64_solves" if result == "float64" else "solver.mp_solves"] += 1


def _count_hi_solve(counts, result, args, kwargs):
    window = args[1]
    pin = kwargs.get("pin")
    drop = {int(v) for v in kwargs.get("dirichlet_zero", ())}
    counts["hifi.unknowns"] += (len(window.vertices) - len(drop)
                                - (pin is not None))
    dps = getattr(kwargs.get("field"), "dps", 0)
    counts["hifi.dps_max"] = max(counts["hifi.dps_max"], dps)


def _count_onb(counts, result, args, kwargs):
    counts["onb.kernels"] += result.N


def _count_sample(counts, result, args, kwargs):
    counts["wiener.draws"] += result.S
    counts["wiener.sample_bytes"] += result.S * result.N * 8


def _count_walk(counts, result, args, kwargs):
    counts["walk.trials"] += result.trials


# (layer key, functions, counter); ``None`` as key counts without a span
FUNCTIONS = [
    ("network.exhaustion", [network.Exhaustion.build.__func__], None),
    ("energy.view", [energy.SubgraphView.__init__], _count_view),
    ("energy.energy", [energy.energy], None),
    ("energy.energy_hi", [energy._energy_hi], None),
    ("solver.solve", [solver.solve_dipole_level], _count_solve),
    (None, [solver.pick_lane], _count_lane),
    ("hifi.hi_solve", [_hifi.hi_solve], _count_hi_solve),
    ("royden.split", [royden.royden_split], None),
    ("onb.build", [onb.build_onb], _count_onb),
    ("onb.gram_schmidt", [onb.gram_schmidt], None),
    ("onb.checks", [onb.entries_M_via_laplacian, onb.entries_E_via_evaluation,
                    onb.gram_product_check, onb.kronecker_sum_check], None),
    ("wiener.sample", [wiener.sample_ensemble], _count_sample),
    ("wiener.checks", [wiener.minlos_check, wiener.isometry_check,
                       wiener.moment_check, wiener.boundary_integral_check,
                       wiener.resistance_via_expectation], None),
    ("walk.mc", [walk.hitting_probability_mc], _count_walk),
    ("boundary.path_equivalence", [boundary.path_equivalence], None),
    ("boundary.boundary_sum", [boundary.boundary_sum_harmonic], None),
]

# every generator family materializes balls through its own ``ball`` method
BALL_CLASSES = [cls for cls in vars(network).values()
                if isinstance(cls, type) and cls.__module__ == network.__name__
                and "ball" in vars(cls)]


def _resbdy_modules():
    return [m for name, m in sorted(sys.modules.items())
            if name == "resbdy" or name.startswith("resbdy.")]


class Tracer:
    """Installs the layer wrappers and aggregates their spans and counts."""

    def __init__(self):
        self._patches = []
        self.reset()

    def reset(self):
        self.spans = {}          # key -> [calls, total_s, self_s]
        self.counts = defaultdict(int)
        self._stack = []         # open spans: [key, child_s]

    def _wrap(self, key, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if key is None or any(frame[0] == key for frame in stack):
                result = fn(*args, **kwargs)
            else:
                frame = [key, 0.0]
                stack.append(frame)
                t0 = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dt = time.perf_counter() - t0
                    stack.pop()
                    if stack:
                        stack[-1][1] += dt
                    agg = tracer.spans.setdefault(key, [0, 0.0, 0.0])
                    agg[0] += 1
                    agg[1] += dt
                    agg[2] += dt - frame[1]
            if counter is not None:
                counter(tracer.counts, result, args, kwargs)
            return result

        return wrapper

    def _patch(self, owner, name, value):
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def install(self):
        """Wrap every listed function wherever a ``resbdy`` module holds it."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        owners = _resbdy_modules() + [network.Exhaustion, energy.SubgraphView]
        for key, fns, counter in FUNCTIONS:
            for fn in fns:
                wrapper = self._wrap(key, fn, counter)
                for owner in owners:
                    for name, value in list(vars(owner).items()):
                        if value is fn:
                            self._patch(owner, name, wrapper)
                        elif isinstance(value, classmethod) and value.__func__ is fn:
                            self._patch(owner, name, classmethod(wrapper))
        for cls in BALL_CLASSES:
            self._patch(cls, "ball",
                        self._wrap("network.ball", vars(cls)["ball"], _count_ball))

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches = []

    def patched(self, fn):
        """Names of the modules and classes where ``fn`` was replaced."""
        return sorted(getattr(owner, "__name__", repr(owner))
                      for owner, _, original in self._patches
                      if original is fn or getattr(original, "__func__", None) is fn)

    def unwrapped(self):
        """(module, attribute) pairs still holding an unwrapped listed function."""
        listed = {id(fn) for _, fns, _ in FUNCTIONS for fn in fns}
        return [(m.__name__, name) for m in _resbdy_modules()
                for name, value in vars(m).items() if id(value) in listed]

    def layer_metrics(self):
        """Per-layer metrics of the spans recorded since the last reset."""
        def calls(key):
            return self.spans.get(key, [0, 0.0, 0.0])[0]

        def total(key):
            return self.spans.get(key, [0, 0.0, 0.0])[1]

        def own(key):
            return self.spans.get(key, [0, 0.0, 0.0])[2]

        c = self.counts
        ambient = c["solver.ambient_vertices"]
        return {
            "network.ball_s": total("network.ball"),
            "network.ball_calls": calls("network.ball"),
            "network.ball_vertices": c["network.ball_vertices"],
            "network.exhaustion_s": total("network.exhaustion"),
            "energy.view_s": total("energy.view"),
            "energy.views": calls("energy.view"),
            "energy.view_vertices": c["energy.view_vertices"],
            "energy.energy_s": total("energy.energy"),
            "energy.energy_calls": calls("energy.energy"),
            "energy.energy_hi_s": total("energy.energy_hi"),
            "solver.solve_s": total("solver.solve"),
            "solver.solve_self_s": own("solver.solve"),
            "solver.solves": calls("solver.solve"),
            "solver.float64_solves": c["solver.float64_solves"],
            "solver.mp_solves": c["solver.mp_solves"],
            "solver.window_share": (c["solver.window_vertices"] / ambient
                                    if ambient else 0.0),
            "solver.ambient_vertices": ambient,
            "hifi.hi_solve_s": total("hifi.hi_solve"),
            "hifi.hi_solves": calls("hifi.hi_solve"),
            "hifi.unknowns": c["hifi.unknowns"],
            "hifi.dps_max": c["hifi.dps_max"],
            "hifi.dps_left": mpmath.mp.dps,
            "royden.split_s": total("royden.split"),
            "royden.split_self_s": own("royden.split"),
            "royden.splits": calls("royden.split"),
            "onb.build_s": total("onb.build"),
            "onb.gram_schmidt_s": total("onb.gram_schmidt"),
            "onb.checks_s": total("onb.checks"),
            "onb.kernels": c["onb.kernels"],
            "wiener.sample_s": total("wiener.sample"),
            "wiener.draws": c["wiener.draws"],
            "wiener.sample_bytes": c["wiener.sample_bytes"],
            "wiener.checks_s": total("wiener.checks"),
            "walk.mc_s": total("walk.mc"),
            "walk.trials": c["walk.trials"],
            "boundary.path_equivalence_s": total("boundary.path_equivalence"),
            "boundary.boundary_sum_s": total("boundary.boundary_sum"),
        }

