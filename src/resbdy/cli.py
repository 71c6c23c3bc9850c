"""Command-line front end: network specs in, JSON/CSV reports out.

Subcommands: generate, kernel, resist, monopole, decompose, onb, gauss-green,
boundary-sum, paths, wiener, ladder, walk, verify-all.

Each subcommand declares only the options it reads: --seed and --out are on
every one, --levels, --tol and --lane only where they reach the library. Each
runs as fn(args, src): main resolves a required --network into src once, and
wiener, whose --network is optional, resolves its own. Reports are JSON
(schema "1"). Their config holds every parsed option but --out, the
subcommand, the package version and the resolved network spec, and they are
byte-identical for identical configurations. No subcommand judges a result
itself: the library results it runs return their check records
(``solver.Check``: name, value, bound, passed), which the document lists as
"checks", and "pass" is their conjunction. Every bound is a named constant,
not an option: boundary-sum's is ``boundary.SUM_TOL``, and paths compares its
probes' gaps with PATH_TOL and SEPARATION_TOL. walk estimates P_start[hit
target before o] on the window, with a reflecting boundary. verify-all adds
its own three checks: the reproducing identity, the Gauss-Green split
identity on random potentials (against SPLIT_TOL unscaled) and exhaustion
independence. Exit codes: 0 every check passed, 2 some check failed, 1 usage
or solver error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import pathlib
import sys

import numpy as np

from . import __version__
from . import boundary as bdy
from . import onb as onbmod
from . import wiener as wmod
from .energy import energy, potential_from_values
from .errors import ResbdyError, UsageError
from .ladder import (du_bound_satisfied, harmonic_residuals,
                     ladder_energy, ladder_harmonic,
                     ladder_vs_halfline_transitions)
from .network import (FAMILIES, LadderGenerator, Network,
                      default_exhaustion, generator_from_spec)
from .royden import royden_split, sup_norm
from .solver import (check, effective_resistance, energy_kernel,
                     exhaustion_independence, monopole, solve_dipole_level)
from .walk import WalkConfig, hitting_probability_mc, hitting_reference

SCHEMA = "1"
# verify-all's reproducing identity <v_x, u> = u(x) - u(o) holds to this, per
# unit of 1 + ||u||
REPRODUCING_TOL = 1e-9
# paths: a probe's gaps below PATH_TOL near the horizon are evidence of
# equivalence, a stabilized gap above SEPARATION_TOL separates the paths
PATH_TOL = 1e-4
SEPARATION_TOL = 1e-2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# options read by several subcommands, each declared only where it is read
SHARED = {
    "levels": dict(type=int, default=30),
    "tol": dict(type=float, default=1e-8),
    "lane": dict(default="auto", choices=["auto", "float64", "mp", "fraction"]),
}


def _subcommand(sub, name, fn, *shared, network=True):
    """Subcommand ``name`` running fn, with --seed, --out, the named SHARED
    options and, if ``network``, a required --network and its family flags,
    which main resolves."""
    p = sub.add_parser(name)
    p.set_defaults(fn=fn, resolve=network)
    if network:
        _network_args(p)
    p.add_argument("--seed", type=seed, default=0)
    p.add_argument("--out", default="")
    for opt in shared:
        p.add_argument(f"--{opt}", **SHARED[opt])
    return p


def seed(text):
    """A --seed value: an integer in [0, 2^63)."""
    value = int(text)
    if not 0 <= value < 2 ** 63:
        raise argparse.ArgumentTypeError(f"{value} is outside [0, 2^63)")
    return value


def _network_args(p, required=True):
    p.add_argument("--network", required=required, default="",
                   help="family name, path to a JSON spec, or inline JSON")
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--dim", type=int)


def resolve_network(args):
    """--network accepts a file path, inline JSON, or a bare family name,
    which alone takes --alpha/--beta/--dim; the family rejects a flag it has
    no parameter for. The resolved spec is kept as ``args.network_spec``."""
    spec = args.network
    flags = {"alpha": args.alpha, "beta": args.beta, "dim": args.dim}
    params = {k: v for k, v in flags.items() if v is not None}
    if spec in FAMILIES and not os.path.isfile(spec):
        src = generator_from_spec({"family": spec, "params": params})
    elif params:
        raise UsageError("--alpha/--beta/--dim go with a family name, "
                         "not with a network spec")
    elif os.path.isfile(spec) or spec.strip().startswith("{"):
        try:
            text = (pathlib.Path(spec).read_text() if os.path.isfile(spec)
                    else spec)
        except (OSError, UnicodeDecodeError) as e:
            raise UsageError(f"cannot read --network {spec!r}: {e}") from None
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as e:
            raise UsageError(f"--network {spec!r} is not valid JSON: {e}") from None
        src = generator_from_spec(doc)
    else:
        raise UsageError(f"cannot interpret --network {spec!r}")
    args.network_spec = _network_spec(src)
    return src


def _network_spec(src):
    """Family and parameters, or a finite network's origin and the sha256 of
    its exact (i, j, conductance) edge list."""
    if isinstance(src, Network):
        edges = "".join(f"{i} {j} {src.exact_conductance(k)}\n"
                        for k, (i, j) in enumerate(zip(src.ei, src.ej)))
        return {"family": "finite", "origin": src.origin,
                "edges_sha256": hashlib.sha256(edges.encode()).hexdigest()}
    return {"family": src.family, "params": src.params()}


def _emit(report, args, checks=()):
    """Write the report with its check records; "pass", and exit code 0
    rather than 2, when every check passed."""
    passed = all(c.passed for c in checks)
    doc = {"schema": SCHEMA, "config": _run_config(args), "report": report,
           "checks": [c._asdict() for c in checks], "pass": passed}
    text = json.dumps(_jsonable(doc), sort_keys=True, indent=2, allow_nan=False)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0 if passed else 2


def _run_config(args):
    """Every parsed argument except the delivery path, with the subcommand,
    the package version and the resolved network spec (None when the
    command ran on no network)."""
    cfg = {k: v for k, v in vars(args).items()
           if k not in ("out", "fn", "cmd", "resolve")}
    cfg.setdefault("network_spec", None)
    cfg.update(subcommand=args.cmd, version=__version__)
    return cfg


def _jsonable(x):
    """Copy of a report in plain JSON types: numpy scalars and arrays become
    Python numbers and lists, and every non-finite float None (JSON null)."""
    if isinstance(x, (float, np.floating)):
        return float(x) if math.isfinite(x) else None
    if isinstance(x, np.integer):
        return int(x)
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple, np.ndarray)):
        return [_jsonable(v) for v in x]
    return x


def _build_onb(src, args, **kwargs):
    """build_onb in --lane; auto means mp."""
    return onbmod.build_onb(src, args.N, **kwargs,
                            lane="mp" if args.lane == "auto" else args.lane)


def _write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(c) if isinstance(c, float) else str(c)
                              for c in row) + "\n")


# -- subcommands -------------------------------------------------------------


def cmd_generate(args, src):
    net = src.ball(args.radius)
    report = {
        "family": net.family,
        "n_vertices": net.n,
        "n_edges": len(net.ei),
        "origin": net.origin,
        "max_level": int(net.level.max()),
        "frontier_size": len(net.frontier),
        "total_conductance": {str(i): float(c) for i, c in
                              enumerate(net.c_of)} if net.n <= 64 else
                             {"min": float(net.c_of.min()),
                              "max": float(net.c_of.max())},
    }
    if net.n <= 64:
        report["edges"] = [[int(a), int(b), float(c)] for a, b, c in
                           zip(net.ei, net.ej, net.ec)]
    return _emit(report, args)


def cmd_kernel(args, src):
    pot, rep = energy_kernel(src, args.x, bc=args.bc, levels=args.levels,
                             tol=args.tol, lane=args.lane)
    report = {"kernel": rep.to_dict(),
              "value_at_x": pot.value(args.x),
              "sup_norm": sup_norm(pot)}
    if len(pot.window.vertices) <= 256:
        report["values"] = pot.to_rows()
    if args.csv:
        _write_csv(args.csv, ["vertex_index", "value"], pot.to_rows())
        report["csv"] = args.csv
    return _emit(report, args, [rep.check])


def cmd_resist(args, src):
    value, rep = effective_resistance(src, args.x, y=args.y, bc=args.bc,
                                      levels=args.levels, tol=args.tol,
                                      lane=args.lane)
    return _emit({"resistance": value, "convergence": rep.to_dict()},
                 args, [rep.check])


def cmd_monopole(args, src):
    res = monopole(src, x=args.x, levels=args.levels, tol=args.tol,
                   divergence_threshold=args.divergence_threshold,
                   schedule=args.schedule, lane=args.lane)
    report = {"transient": res.transient, "energy_trace": res.report.to_dict()}
    return _emit(report, args, [res.report.check])


def cmd_decompose(args, src):
    split = royden_split(src, args.x, levels=args.levels, tol=args.tol,
                         lane=args.lane)
    return _emit(split.to_dict(), args, split.checks)


def cmd_onb(args, src):
    onb = _build_onb(src, args, radius=args.radius)
    devs, checks = onbmod.identity_checks(onb)
    report = {"N": onb.N, "enumeration": onb.enumeration,
              "orthonormality_dev": onb.orth_dev, "pivot_min": onb.pivot_min,
              **devs, "field": onb.field}
    if args.csv_prefix:
        for name, mat in (("M", onb.M), ("E", onb.E), ("V", onb.V)):
            _write_csv(f"{args.csv_prefix}{name}.csv",
                       [f"c{j}" for j in range(onb.N)],
                       [list(map(float, row)) for row in mat])
        report["csv_prefix"] = args.csv_prefix
    return _emit(report, args, checks)


def cmd_gauss_green(args, src):
    radii = default_exhaustion(src, args.levels).radii
    window = src.ball(radii[-1] + 1).full_view()
    v = solve_dipole_level(window, args.x, bc="free", lane=args.lane)
    u = (solve_dipole_level(window, args.u_kernel, bc="free", lane=args.lane)
         if args.u_kernel is not None else v)
    rep = bdy.gauss_green_verify(u, v, radii)
    return _emit(rep.to_dict(), args, [rep.check])


def cmd_boundary_sum(args, src):
    if isinstance(src, LadderGenerator):
        u_values = ladder_harmonic(src.alpha, src.beta,
                                   max(args.levels + 2, 8)).value
    elif args.u_kernel is not None:
        u_values = royden_split(src, args.u_kernel, levels=args.levels,
                                tol=args.tol, lane=args.lane).h.value
    else:
        raise UsageError("need --u-kernel for non-ladder networks")
    rep = bdy.boundary_sum_harmonic(src, u_values, args.x, levels=args.levels,
                                    lane=args.lane)
    return _emit(rep.to_dict(), args, [rep.check])


def cmd_paths(args, src):
    if not isinstance(src, LadderGenerator):
        raise UsageError("canonical path pairs are defined for the ladder family")
    p1, p2 = src.x_rail_path(), src.y_rail_path()
    # a negative horizon is invalid before any solve is made for it
    p1.prefix(args.horizon)
    probe_radius = (args.horizon + 1 if args.probe_radius is None
                    else args.probe_radius)
    if probe_radius < args.horizon + 1:
        raise UsageError("--probe-radius must reach past the horizon")
    probes = []
    for label, x in (("h_x1", src.x(1)), ("h_x2", src.x(2))):
        split = royden_split(src, x, levels=min(args.levels, 30), tol=args.tol,
                             lane=args.lane, final_radius=probe_radius)
        probes.append((label, split.h))
    deep = src.ball(probe_radius + 1).ball_view(probe_radius)
    w_o = solve_dipole_level(deep, 0, bc="wired", rhs={0: 1}, lane=args.lane)
    probes.append(("w_o", w_o))
    ev = bdy.path_equivalence(p1, p2, probes, horizon=args.horizon,
                              path_tol=PATH_TOL, separation_tol=SEPARATION_TOL)
    evals = {}
    for name, pot in probes:
        for path in (p1, p2):
            if pot.window.mask[path.prefix(args.horizon)[-1]]:
                r = bdy.boundary_point_eval(path, pot, horizon=args.horizon,
                                            path_tol=PATH_TOL)
                evals[f"{name}:{path.name}"] = r.to_dict()
    report = {"equivalence": ev.to_dict(), "boundary_point_evals": evals}
    return _emit(report, args, [ev.check])


def cmd_wiener(args, _):
    if args.n_checks < 1:
        raise UsageError("--n-checks must be at least 1")
    ens = wmod.sample_ensemble(args.N, args.samples, args.seed)
    rng = np.random.Generator(np.random.Philox(key=args.seed + 1))
    results, checks = [], []
    report = {"ensemble": ens.summary()}
    if args.check in ("minlos", "moments"):
        for _ in range(args.n_checks):
            u = rng.standard_normal(args.N) / np.sqrt(args.N)
            results += ([wmod.minlos_check(u, ens)] if args.check == "minlos"
                        else [wmod.isometry_check(u, ens),
                              wmod.moment_check(u, ens, 2),
                              wmod.moment_check(u, ens, 1, odd=True)])
    else:
        if not args.network or args.x is None:
            raise UsageError(f"--check {args.check} needs --network and --x")
        src = resolve_network(args)
        if args.check == "boundary" and not isinstance(src, LadderGenerator):
            raise UsageError("--check boundary runs on the ladder family")
        onb = _build_onb(src, args)
        if args.check == "resistance":
            ref, rep = effective_resistance(src, args.x, y=args.y,
                                            levels=args.levels, tol=args.tol,
                                            lane=args.lane)
            results = list(wmod.resistance_via_expectation(
                args.x, args.y if args.y is not None else onb.net.origin,
                onb, ens, reference=ref, atol=1e-2))
            checks = [rep.check]
        else:
            lh = ladder_harmonic(src.alpha, src.beta,
                                 int(onb.net.level.max()) + 2)
            split = royden_split(src, args.x, levels=args.levels,
                                 tol=args.tol, lane=args.lane)
            ucoef = onbmod.coefficient_vector(onb, lh.value)
            hcoef = onbmod.coefficient_vector(onb, split.h)
            target = lh.value(args.x) - lh.value(0)
            results = [wmod.boundary_integral_check(ucoef, target, hcoef, ens)]
            report["mu_negative_fraction"] = wmod.mu_negative_fraction(hcoef, ens)
    report["results"] = [r.to_dict() for r in results]
    return _emit(report, args, checks + [r.check for r in results])


def cmd_ladder(args, _):
    lh = ladder_harmonic(args.alpha, args.beta, args.N)
    en = ladder_energy(lh, tol=args.tol)
    res = harmonic_residuals(lh)
    report = {
        "u1": float(lh.u[1]),
        "u_final": float(lh.u[-1]),
        "du_positive": bool(np.all(lh.du > 0)),
        "max_residual": float(np.abs(res).max()),
        "energy": en.to_dict(),
        "transitions_n1": ladder_vs_halfline_transitions(args.alpha, args.beta, 1),
    }
    if args.alpha > 4 * args.beta ** 2:
        report["du_bound_holds"] = du_bound_satisfied(lh)[0]
    if args.csv:
        rows = [(n, float(lh.u[n]), float(lh.du[n]) if n < lh.n_max else "",
                 float(en.total_partial[n]) if n < lh.n_max else "")
                for n in range(lh.n_max + 1)]
        _write_csv(args.csv, ["n", "u", "du", "partial_energy"], rows)
        report["csv"] = args.csv
    return _emit(report, args, [en.check])


def cmd_walk(args, src):
    view = src.ball(args.radius).full_view()
    cfg = WalkConfig(trials=args.trials, seed=args.seed,
                     max_steps=args.max_steps)
    est = hitting_probability_mc(view, args.start, args.target, config=cfg)
    est.reference = float(hitting_reference(view, args.start, args.target))
    return _emit(est.to_dict(), args, [est.check])


def cmd_verify_all(args, src):
    radius = min(args.levels, 8)
    ambient = src.ball(radius)
    window = ambient.ball_view(radius)
    rng = np.random.Generator(np.random.Philox(key=args.seed))

    def draw():
        return potential_from_values(ambient, rng.standard_normal(ambient.n),
                                     window=window, pinned=True)

    # reproducing identity on the ambient window
    enum = [v for v in ambient.level.argsort()[:5] if v != ambient.origin][:3]
    devs = []
    for x in map(int, enum):
        vx = solve_dipole_level(window, x, bc="free")
        for u in (draw() for _ in range(10)):
            rhs = u.value(x) - u.value(ambient.origin)
            devs.append(abs(energy(vx, u) - rhs) / (1 + abs(energy(u, u)) ** 0.5))
    # np.max keeps a NaN, which max() would drop
    checks = [check("reproducing-identity", np.max(devs), REPRODUCING_TOL)]
    # finite Gauss-Green on the window subgraph, its split identity unscaled
    devs = [bdy.gauss_green_verify(draw(), draw(), [radius]).split_identity_dev
            for _ in range(10)]
    checks.append(check("gauss-green-window-identity", np.max(devs),
                        bdy.SPLIT_TOL))

    # the subcommands' checks: a small ONB, a Royden split, two Wiener draws
    onb = onbmod.build_onb(src, min(8, ambient.n - 1))
    x1 = onb.enumeration[0]
    split = royden_split(src, x1, levels=args.levels, tol=args.tol)
    ens = wmod.sample_ensemble(8, 20_000, args.seed)
    u = rng.standard_normal(8) / 4
    checks += [*onbmod.identity_checks(onb)[1], split.pythagoras,
               split.harmonicity, wmod.minlos_check(u, ens).check,
               wmod.isometry_check(u, ens).check]
    report = {}
    if not isinstance(src, Network):
        report["exhaustion_independence"] = ind = exhaustion_independence(
            src, x1, tol=args.tol, levels=min(args.levels, 24))
        checks.append(check("exhaustion-independence", ind["verdict"],
                            passed=ind["verdict"] != "disagree"))
    return _emit(report, args, checks)


def build_parser():
    ap = _Parser(prog="resbdy", description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    limit = ("levels", "tol", "lane")
    p = _subcommand(sub, "generate", cmd_generate)
    p.add_argument("--radius", type=int, default=4)
    p = _subcommand(sub, "kernel", cmd_kernel, *limit)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--bc", default="free", choices=["free", "wired"])
    p.add_argument("--csv", default="")
    p = _subcommand(sub, "resist", cmd_resist, *limit)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--y", type=int, default=None)
    p.add_argument("--bc", default="free", choices=["free", "wired"])
    p = _subcommand(sub, "monopole", cmd_monopole, *limit)
    p.add_argument("--x", type=int, default=None)
    p.add_argument("--schedule", default="doubling", choices=["doubling", "linear"])
    p.add_argument("--divergence-threshold", type=float, default=1e6)
    p = _subcommand(sub, "decompose", cmd_decompose, *limit)
    p.add_argument("--x", type=int, required=True)
    p = _subcommand(sub, "onb", cmd_onb, "lane")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--radius", type=int, default=None)
    p.add_argument("--csv-prefix", default="")
    p = _subcommand(sub, "gauss-green", cmd_gauss_green, "levels", "lane")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--u-kernel", type=int, default=None)
    p = _subcommand(sub, "boundary-sum", cmd_boundary_sum, *limit)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--u-kernel", type=int, default=None)
    p = _subcommand(sub, "paths", cmd_paths, *limit)
    p.add_argument("--horizon", type=int, default=200)
    p.add_argument("--probe-radius", type=int, default=None,
                   help="solve probes this deep (default: horizon + 1); "
                        "probe level error decays like 1/radius")
    p = _subcommand(sub, "wiener", cmd_wiener, *limit, network=False)
    _network_args(p, required=False)
    p.add_argument("--check", required=True,
                   choices=["minlos", "moments", "resistance", "boundary"])
    p.add_argument("--N", type=int, default=20)
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--n-checks", type=int, default=10)
    p.add_argument("--x", type=int, default=None)
    p.add_argument("--y", type=int, default=None)
    p = _subcommand(sub, "ladder", cmd_ladder, "tol", network=False)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--N", type=int, default=200)
    p.add_argument("--csv", default="")
    p = _subcommand(sub, "walk", cmd_walk)
    p.add_argument("--start", type=int, required=True)
    p.add_argument("--target", type=int, required=True)
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--max-steps", type=int, default=1_000_000)
    p.add_argument("--radius", type=int, default=8)
    _subcommand(sub, "verify-all", cmd_verify_all, "levels", "tol")
    return ap


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args, resolve_network(args) if args.resolve else None)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except ResbdyError as e:
        print(f"error [{e.code}]: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
