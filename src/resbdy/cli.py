"""Command-line front end: network specs in, JSON/CSV reports out.

Subcommands: generate, kernel, resist, monopole, decompose, onb, gauss-green,
boundary-sum, paths, wiener, ladder, walk, verify-all.

Each subcommand declares only the options it reads: --seed and --out are on
every one, --levels, --tol and --lane only where they reach the library.
Reports are JSON (schema "1"). Their config holds every parsed option but
--out, the subcommand, the package version and the resolved network spec,
and they are byte-identical for identical configurations. Exit codes: 0 all
checks passed, 2 a check failed or a limit did not converge, 1 usage or
solver error.
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
from .solver import (effective_resistance, energy_kernel,
                     exhaustion_independence, monopole, solve_dipole_level)
from .walk import WalkConfig, hitting_probability_mc, hitting_reference

SCHEMA = "1"


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
    options and, if ``network``, a required --network and its family flags."""
    p = sub.add_parser(name)
    p.set_defaults(fn=fn)
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


def _emit(report, args, failed=False):
    doc = {"schema": SCHEMA, "config": _run_config(args), "report": report,
           "pass": not failed}
    text = json.dumps(_jsonable(doc), sort_keys=True, indent=2, allow_nan=False)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 2 if failed else 0


def _run_config(args):
    """Every parsed argument except the delivery path, with the subcommand,
    the package version and the resolved network spec (None when the
    command ran on no network)."""
    cfg = {k: v for k, v in vars(args).items() if k not in ("out", "fn", "cmd")}
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


def _onb_suite(onb):
    """The ONB identity deviations, and whether the basis passes: every
    deviation <= 1e-7 and orthonormality <= 1e-9, so that a NaN fails."""
    devs = {"laplacian_entries_dev": onbmod.entries_M_via_laplacian(onb)[1],
            "evaluation_entries_dev": onbmod.entries_E_via_evaluation(onb)[1],
            "gram_product_dev": onbmod.gram_product_check(onb),
            "kronecker_sum_dev": onbmod.kronecker_sum_check(onb)}
    return devs, all(d <= 1e-7 for d in devs.values()), onb.orth_dev <= 1e-9


def _write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(c) if isinstance(c, float) else str(c)
                              for c in row) + "\n")


# -- subcommands -------------------------------------------------------------


def cmd_generate(args):
    src = resolve_network(args)
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


def cmd_kernel(args):
    src = resolve_network(args)
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
    return _emit(report, args, failed=not rep.converged)


def cmd_resist(args):
    src = resolve_network(args)
    value, rep = effective_resistance(src, args.x, y=args.y, bc=args.bc,
                                      levels=args.levels, tol=args.tol,
                                      lane=args.lane)
    return _emit({"resistance": value, "convergence": rep.to_dict()},
                 args, failed=not rep.converged)


def cmd_monopole(args):
    src = resolve_network(args)
    res = monopole(src, x=args.x, levels=args.levels, tol=args.tol,
                   divergence_threshold=args.divergence_threshold,
                   schedule=args.schedule, lane=args.lane)
    report = {"transient": res.transient, "energy_trace": res.report.to_dict()}
    return _emit(report, args, failed=res.transient is None)


def cmd_decompose(args):
    src = resolve_network(args)
    split = royden_split(src, args.x, levels=args.levels, tol=args.tol,
                         harm_tol=args.harm_tol, lane=args.lane)
    failed = split.harmonicity_violated or not (
        split.free_report.converged and split.wired_report.converged)
    return _emit(split.to_dict(), args, failed=failed)


def cmd_onb(args):
    src = resolve_network(args)
    onb = _build_onb(src, args, radius=args.radius)
    devs, identities_ok, orthonormal = _onb_suite(onb)
    report = {
        "N": onb.N,
        "enumeration": onb.enumeration,
        "orthonormality_dev": onb.orth_dev,
        "pivot_min": onb.pivot_min,
        **devs,
        "field": onb.field,
    }
    failed = not (identities_ok and orthonormal)
    if args.csv_prefix:
        for name, mat in (("M", onb.M), ("E", onb.E), ("V", onb.V)):
            _write_csv(f"{args.csv_prefix}{name}.csv",
                       [f"c{j}" for j in range(onb.N)],
                       [list(map(float, row)) for row in mat])
        report["csv_prefix"] = args.csv_prefix
    return _emit(report, args, failed=failed)


def cmd_gauss_green(args):
    src = resolve_network(args)
    radii = default_exhaustion(src, args.levels).radii
    window = src.ball(radii[-1] + 1).full_view()
    v = solve_dipole_level(window, args.x, bc="free", lane=args.lane)
    u = (solve_dipole_level(window, args.u_kernel, bc="free", lane=args.lane)
         if args.u_kernel is not None else v)
    rep = bdy.gauss_green_verify(u, v, radii)
    failed = not (rep.split_identity_dev <= 1e-8 * (1 + abs(rep.target)))
    return _emit(rep.to_dict(), args, failed=failed)


def cmd_boundary_sum(args):
    src = resolve_network(args)
    if isinstance(src, LadderGenerator):
        lh = ladder_harmonic(src.alpha, src.beta, max(args.levels + 2, 8))
        u_values = lh.value
    elif args.u_kernel is not None:
        split = royden_split(src, args.u_kernel, levels=args.levels,
                             tol=args.tol, lane=args.lane)
        u_values = split.h.value
    else:
        raise UsageError("need --u-kernel for non-ladder networks")
    rep = bdy.boundary_sum_harmonic(src, u_values, args.x, levels=args.levels,
                                    lane=args.lane)
    dev = rep.final_deviation
    failed = dev is None or not (dev <= args.bs_tol)
    return _emit(rep.to_dict(), args, failed=failed)


def cmd_paths(args):
    src = resolve_network(args)
    if not isinstance(src, LadderGenerator):
        raise UsageError("canonical path pairs are defined for the ladder family")
    p1, p2 = src.x_rail_path(), src.y_rail_path()
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
                              path_tol=args.path_tol,
                              separation_tol=args.separation_tol)
    evals = {}
    for name, pot in probes:
        for path in (p1, p2):
            if pot.window.mask[path.prefix(args.horizon)[-1]]:
                r = bdy.boundary_point_eval(path, pot, horizon=args.horizon,
                                            path_tol=args.path_tol)
                evals[f"{name}:{path.name}"] = r.to_dict()
    report = {"equivalence": ev.to_dict(), "boundary_point_evals": evals}
    return _emit(report, args, failed=ev.verdict == "inconclusive")


def cmd_wiener(args):
    ens = wmod.sample_ensemble(args.N, args.samples, args.seed)
    rng = np.random.Generator(np.random.Philox(key=args.seed + 1))
    results = []
    failed = False
    if args.check == "minlos":
        for _ in range(args.n_checks):
            u = rng.standard_normal(args.N) / np.sqrt(args.N)
            results.append(wmod.minlos_check(u, ens).to_dict())
    elif args.check == "moments":
        for _ in range(args.n_checks):
            u = rng.standard_normal(args.N) / np.sqrt(args.N)
            results.append(wmod.isometry_check(u, ens).to_dict())
            results.append(wmod.moment_check(u, ens, 2).to_dict())
            results.append(wmod.moment_check(u, ens, 1, odd=True).to_dict())
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
            quad, expo = wmod.resistance_via_expectation(
                args.x, args.y if args.y is not None else onb.net.origin,
                onb, ens, reference=ref, atol=1e-2)
            results = [quad.to_dict(), expo.to_dict()]
            failed = not rep.converged
        else:
            lh = ladder_harmonic(src.alpha, src.beta,
                                 int(onb.net.level.max()) + 2)
            split = royden_split(src, args.x, levels=args.levels,
                                 tol=args.tol, lane=args.lane)
            ucoef = onbmod.coefficient_vector(onb, lh.value)
            hcoef = onbmod.coefficient_vector(onb, split.h)
            target = lh.value(args.x) - lh.value(0)
            res = wmod.boundary_integral_check(ucoef, target, hcoef, ens)
            res2 = {"mu_negative_fraction":
                    wmod.mu_negative_fraction(hcoef, ens)}
            results = [res.to_dict(), res2]
    failed = failed or any(not r.get("pass", True) for r in results)
    return _emit({"checks": results, "ensemble": ens.summary()}, args,
                 failed=failed)


def cmd_ladder(args):
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
        ok, idx = du_bound_satisfied(lh)
        report["du_bound_holds"] = ok
    if args.csv:
        rows = [(n, float(lh.u[n]), float(lh.du[n]) if n < lh.n_max else "",
                 float(en.total_partial[n]) if n < lh.n_max else "")
                for n in range(lh.n_max + 1)]
        _write_csv(args.csv, ["n", "u", "du", "partial_energy"], rows)
        report["csv"] = args.csv
    return _emit(report, args, failed=not en.converged)


def cmd_walk(args):
    src = resolve_network(args)
    view = src.ball(args.radius).full_view()
    cfg = WalkConfig(trials=args.trials, seed=args.seed,
                     max_steps=args.max_steps, boundary_mode=args.boundary_mode)
    est = hitting_probability_mc(view, args.start, args.target,
                                 absorber=args.absorber, config=cfg)
    ref = hitting_reference(view, args.start, args.target,
                            absorber=args.absorber)
    est.reference = float(ref)
    # with no absorbed walk there is no estimate, and NaN must not pass
    failed = est.absorbed == 0 or \
        not abs(est.estimate - ref) <= 4 * max(est.stderr, 1e-12)
    return _emit(est.to_dict(), args, failed=failed)


def cmd_verify_all(args):
    src = resolve_network(args)
    radius = min(args.levels, 8)
    ambient = src.ball(radius)
    window = ambient.ball_view(radius)
    rng = np.random.Generator(np.random.Philox(key=args.seed))
    lines = []
    ok_all = True

    def check(name, ok, detail=""):
        nonlocal ok_all
        ok_all = ok_all and bool(ok)
        lines.append({"check": name, "pass": bool(ok), "detail": detail})

    # reproducing identity on the ambient window
    enum = [v for v in ambient.level.argsort()[:5] if v != ambient.origin][:3]
    worst = 0.0
    for x in enum:
        vx = solve_dipole_level(window, int(x), bc="free")
        for _ in range(10):
            u = potential_from_values(ambient, rng.standard_normal(ambient.n),
                                      window=window, pinned=True)
            lhs = energy(vx, u)
            rhs = u.value(int(x)) - u.value(ambient.origin)
            # np.maximum keeps a NaN, which max() would drop
            dev_x = abs(lhs - rhs) / (1 + abs(energy(u, u)) ** 0.5)
            worst = np.maximum(worst, dev_x)
    check("reproducing-identity", worst <= 1e-9, f"max_dev={worst:.2e}")

    # finite Gauss-Green on the window subgraph
    dev = 0.0
    for _ in range(10):
        u = potential_from_values(ambient, rng.standard_normal(ambient.n),
                                  window=window, pinned=True)
        v = potential_from_values(ambient, rng.standard_normal(ambient.n),
                                  window=window, pinned=True)
        rep = bdy.gauss_green_verify(u, v, [radius])
        dev = np.maximum(dev, rep.split_identity_dev)
    check("gauss-green-window-identity", dev <= 1e-8, f"max_dev={dev:.2e}")

    # small onb identity suite
    n_small = min(8, ambient.n - 1)
    onb = onbmod.build_onb(src, n_small)
    devs, identities_ok, orthonormal = _onb_suite(onb)
    check("onb-identities", identities_ok,
          "dev=(" + ",".join(f"{d:.1e}" for d in devs.values()) + ")")
    check("onb-orthonormality", orthonormal, f"{onb.orth_dev:.2e}")

    # royden split sanity
    x1 = onb.enumeration[0]
    split = royden_split(src, x1, levels=args.levels, tol=args.tol)
    check("royden-pythagoras", split.pythagoras_deviation <= 1e-6,
          f"{split.pythagoras_deviation:.2e}")
    check("royden-harmonicity", not split.harmonicity_violated,
          f"residual={split.harm_residual_max:.2e}")

    # wiener smoke test
    ens = wmod.sample_ensemble(8, 20_000, args.seed)
    u = rng.standard_normal(8) / 4
    check("minlos", wmod.minlos_check(u, ens).passed)
    check("isometry", wmod.isometry_check(u, ens).passed)

    # exhaustion independence
    if not isinstance(src, Network):
        ind = exhaustion_independence(src, x1, tol=args.tol,
                                      levels=min(args.levels, 24))
        check("exhaustion-independence", ind["verdict"] != "disagree",
              json.dumps(ind, sort_keys=True))

    for line in lines:
        status = "PASS" if line["pass"] else "FAIL"
        print(f"[{status}] {line['check']} {line['detail']}", file=sys.stderr)
    return _emit({"checks": lines}, args, failed=not ok_all)


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
    p.add_argument("--harm-tol", type=float, default=bdy.HARM_TOL)
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
    p.add_argument("--bs-tol", type=float, default=1e-3)
    p = _subcommand(sub, "paths", cmd_paths, *limit)
    p.add_argument("--horizon", type=int, default=200)
    p.add_argument("--path-tol", type=float, default=1e-4)
    p.add_argument("--separation-tol", type=float, default=1e-2)
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
    p.add_argument("--absorber", type=int, default=None)
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--max-steps", type=int, default=1_000_000)
    p.add_argument("--boundary-mode", default="free", choices=["free", "wired"])
    p.add_argument("--radius", type=int, default=8)
    _subcommand(sub, "verify-all", cmd_verify_all, "levels", "tol")
    return ap


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except ResbdyError as e:
        print(f"error [{e.code}]: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
