"""Command-line front end: network specs in, JSON/CSV reports out.

Subcommands: generate, kernel, resist, monopole, decompose, onb, gauss-green,
boundary-sum, paths, wiener, ladder, walk, verify-all.

Reports are JSON (schema "1"), embed the full run configuration including the
seed, and are byte-identical for identical configurations. Exit codes: 0 all
checks passed, 2 a check failed or a limit did not converge, 1 usage or
solver error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
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
                      default_exhaustion, generator_for, generator_from_spec)
from .royden import royden_split, sup_norm
from .solver import (effective_resistance, energy_kernel,
                     exhaustion_independence, monopole, solve_dipole_level)
from .walk import WalkConfig, hitting_probability_mc, hitting_reference

SCHEMA = "1"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _network_args(p):
    p.add_argument("--network", required=True,
                   help="family name, path to a JSON spec, or inline JSON")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--origin", type=int, default=0)


def _common_args(p):
    p.add_argument("--levels", type=int, default=30)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="")
    p.add_argument("--lane", default="auto",
                   choices=["auto", "float64", "mp", "fraction"])


def resolve_network(args):
    """--network accepts a file path, inline JSON, or a bare family name."""
    spec = args.network
    if os.path.exists(spec):
        with open(spec) as fh:
            return generator_from_spec(json.load(fh))
    if spec.strip().startswith("{"):
        return generator_from_spec(json.loads(spec))
    if spec in FAMILIES:
        params = {}
        if args.alpha is not None:
            params["alpha"] = args.alpha
        if args.beta is not None:
            params["beta"] = args.beta
        if spec == "integer-lattice":
            params["d"] = args.dim if args.dim is not None else 1
        return generator_from_spec({"family": spec, "params": params})
    raise UsageError(f"cannot interpret --network {spec!r}")


def _emit(report, args, failed=False):
    doc = {"schema": SCHEMA, "config": _run_config(args), "report": report,
           "pass": not failed}
    text = json.dumps(_finite(doc), sort_keys=True, indent=2, allow_nan=False,
                      default=_json_default)
    if getattr(args, "out", ""):
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 2 if failed else 0


def _run_config(args):
    """Every parsed argument except the delivery path, with the subcommand,
    the package version and the sampling workers."""
    cfg = {k: v for k, v in vars(args).items() if k not in ("out", "fn", "cmd")}
    cfg.update(subcommand=args.cmd, version=__version__, workers=_workers())
    return cfg


def _workers():
    """Sampling workers: RESBDY_THREADS clamped to [1, 64]."""
    return max(1, min(int(os.environ.get("RESBDY_THREADS", "1")), 64))


def _finite(x):
    """Copy of a report with every non-finite float replaced by None (JSON null)."""
    if isinstance(x, (float, np.floating)):
        return x if math.isfinite(x) else None
    if isinstance(x, dict):
        return {k: _finite(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_finite(v) for v in x]
    if isinstance(x, np.ndarray):
        return _finite(x.tolist())
    return x


def _json_default(x):
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    if isinstance(x, complex):
        return {"re": x.real, "im": x.imag}
    raise TypeError(f"not JSON serializable: {type(x)}")


def _write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(c) if isinstance(c, float) else str(c)
                              for c in row) + "\n")


# -- subcommands -------------------------------------------------------------


def cmd_generate(args):
    src = resolve_network(args)
    net = src if isinstance(src, Network) else src.ball(args.radius)
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
    onb = onbmod.build_onb(src, args.N, radius=args.radius,
                           lane="mp" if args.lane == "auto" else args.lane)
    _, dev_m = onbmod.entries_M_via_laplacian(onb)
    _, dev_e = onbmod.entries_E_via_evaluation(onb)
    dev_v = onbmod.gram_product_check(onb)
    dev_k = onbmod.kronecker_sum_check(onb)
    report = {
        "N": onb.N,
        "enumeration": onb.enumeration,
        "orthonormality_dev": onb.orth_dev,
        "pivot_min": onb.pivot_min,
        "laplacian_entries_dev": dev_m,
        "evaluation_entries_dev": dev_e,
        "gram_product_dev": dev_v,
        "kronecker_sum_dev": dev_k,
        "field": onb.field,
    }
    failed = max(dev_m, dev_e, dev_v, dev_k) > 1e-7 or onb.orth_dev > 1e-9
    if args.csv_prefix:
        for name, mat in (("M", onb.M), ("E", onb.E), ("V", onb.V)):
            _write_csv(f"{args.csv_prefix}{name}.csv",
                       [f"c{j}" for j in range(onb.N)],
                       [list(map(float, row)) for row in mat])
        report["csv_prefix"] = args.csv_prefix
    return _emit(report, args, failed=failed)


def cmd_gauss_green(args):
    src = resolve_network(args)
    exh = default_exhaustion(src, args.levels)
    window = exh.ambient.full_view()
    v = solve_dipole_level(window, args.x, bc="free", lane=args.lane)
    u = (solve_dipole_level(window, args.u_kernel, bc="free", lane=args.lane)
         if args.u_kernel is not None else v)
    rep = bdy.gauss_green_verify(u, v, exhaustion=exh)
    failed = rep.split_identity_dev > 1e-8 * (1 + abs(rep.target))
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
    failed = rep.final_deviation is None or rep.final_deviation > args.bs_tol
    return _emit(rep.to_dict(), args, failed=failed)


def cmd_paths(args):
    src = resolve_network(args)
    if not isinstance(src, LadderGenerator):
        raise UsageError("canonical path pairs are defined for the ladder family")
    p1, p2 = src.x_rail_path(), src.y_rail_path()
    probe_radius = args.probe_radius or args.horizon + 1
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
    ens = wmod.sample_ensemble(args.N, args.samples, args.seed, workers=_workers())
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
    elif args.check == "resistance":
        if not args.network or args.x is None:
            raise UsageError("--check resistance needs --network and --x")
        src = resolve_network(args)
        onb = onbmod.build_onb(src, args.N)
        ref, rep = effective_resistance(src, args.x, y=args.y,
                                        levels=args.levels, tol=args.tol)
        quad, expo = wmod.resistance_via_expectation(
            args.x, args.y if args.y is not None else onb.net.origin,
            onb, ens, reference=ref, atol=1e-2)
        results = [quad.to_dict(), expo.to_dict()]
        failed = not rep.converged
    elif args.check == "boundary":
        if not args.network or args.x is None:
            raise UsageError("--check boundary needs --network and --x")
        src = resolve_network(args)
        if not isinstance(src, LadderGenerator):
            raise UsageError("--check boundary runs on the ladder family")
        onb = onbmod.build_onb(src, args.N)
        lh = ladder_harmonic(src.alpha, src.beta,
                             int(onb.net.level.max()) + 2)
        split = royden_split(src, args.x, levels=args.levels, tol=args.tol,
                             lane=args.lane)
        ucoef = onbmod.coefficient_vector(onb, lh.value)
        hcoef = onbmod.coefficient_vector(onb, split.h)
        target = lh.value(args.x) - lh.value(0)
        res = wmod.boundary_integral_check(ucoef, target, hcoef, ens)
        res2 = {"mu_negative_fraction": wmod.mu_negative_fraction(hcoef, ens)}
        results = [res.to_dict(), res2]
    else:
        raise UsageError(f"unknown --check {args.check}")
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
    gen = generator_for(src)
    net = gen.ball(args.radius) if not isinstance(src, Network) else src
    view = net.full_view()
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
    gen = generator_for(src)
    ambient = gen.ball(min(args.levels, 8))
    window = ambient.full_view()
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
                                      pinned=True)
            lhs = energy(vx, u)
            rhs = u.value(int(x)) - u.value(ambient.origin)
            worst = max(worst, abs(lhs - rhs) / (1 + abs(energy(u, u)) ** 0.5))
    check("reproducing-identity", worst <= 1e-9, f"max_dev={worst:.2e}")

    # finite Gauss-Green on the window subgraph
    dev = 0.0
    for _ in range(10):
        u = potential_from_values(ambient, rng.standard_normal(ambient.n), pinned=True)
        v = potential_from_values(ambient, rng.standard_normal(ambient.n), pinned=True)
        rep = bdy.gauss_green_verify(u, v, levels=[window])
        dev = max(dev, rep.split_identity_dev)
    check("gauss-green-window-identity", dev <= 1e-8, f"max_dev={dev:.2e}")

    # small onb identity suite
    n_small = min(8, ambient.n - 1)
    onb = onbmod.build_onb(gen, n_small)
    _, dm = onbmod.entries_M_via_laplacian(onb)
    _, de = onbmod.entries_E_via_evaluation(onb)
    dv = onbmod.gram_product_check(onb)
    dk = onbmod.kronecker_sum_check(onb)
    check("onb-identities", max(dm, de, dv, dk) <= 1e-7,
          f"dev=({dm:.1e},{de:.1e},{dv:.1e},{dk:.1e})")
    check("onb-orthonormality", onb.orth_dev <= 1e-9, f"{onb.orth_dev:.2e}")

    # royden split sanity
    x1 = onb.enumeration[0]
    split = royden_split(gen, x1, levels=args.levels, tol=args.tol)
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
        ind = exhaustion_independence(gen, x1, tol=args.tol,
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

    p = sub.add_parser("generate");  _network_args(p); _common_args(p)
    p.add_argument("--radius", type=int, default=4)
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("kernel");  _network_args(p); _common_args(p)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--bc", default="free", choices=["free", "wired"])
    p.add_argument("--csv", default="")
    p.set_defaults(fn=cmd_kernel)

    p = sub.add_parser("resist");  _network_args(p); _common_args(p)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--y", type=int, default=None)
    p.add_argument("--bc", default="free", choices=["free", "wired"])
    p.set_defaults(fn=cmd_resist)

    p = sub.add_parser("monopole");  _network_args(p); _common_args(p)
    p.add_argument("--x", type=int, default=None)
    p.add_argument("--schedule", default="doubling", choices=["doubling", "linear"])
    p.add_argument("--divergence-threshold", type=float, default=1e6)
    p.set_defaults(fn=cmd_monopole)

    p = sub.add_parser("decompose");  _network_args(p); _common_args(p)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--harm-tol", type=float, default=1e-6)
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("onb");  _network_args(p); _common_args(p)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--radius", type=int, default=None)
    p.add_argument("--csv-prefix", default="")
    p.set_defaults(fn=cmd_onb)

    p = sub.add_parser("gauss-green");  _network_args(p); _common_args(p)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--u-kernel", type=int, default=None)
    p.set_defaults(fn=cmd_gauss_green)

    p = sub.add_parser("boundary-sum");  _network_args(p); _common_args(p)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--u-kernel", type=int, default=None)
    p.add_argument("--bs-tol", type=float, default=1e-3)
    p.set_defaults(fn=cmd_boundary_sum)

    p = sub.add_parser("paths");  _network_args(p); _common_args(p)
    p.add_argument("--horizon", type=int, default=200)
    p.add_argument("--path-tol", type=float, default=1e-4)
    p.add_argument("--separation-tol", type=float, default=1e-2)
    p.add_argument("--probe-radius", type=int, default=None,
                   help="solve probes this deep (default: horizon + 1); "
                        "probe level error decays like 1/radius")
    p.set_defaults(fn=cmd_paths)

    p = sub.add_parser("wiener");  _common_args(p)
    p.add_argument("--check", required=True,
                   choices=["minlos", "moments", "resistance", "boundary"])
    p.add_argument("--N", type=int, default=20)
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--n-checks", type=int, default=10)
    p.add_argument("--network", default="")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--x", type=int, default=None)
    p.add_argument("--y", type=int, default=None)
    p.set_defaults(fn=cmd_wiener)

    p = sub.add_parser("ladder");  _common_args(p)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--N", type=int, default=200)
    p.add_argument("--csv", default="")
    p.set_defaults(fn=cmd_ladder)

    p = sub.add_parser("walk");  _network_args(p); _common_args(p)
    p.add_argument("--start", type=int, required=True)
    p.add_argument("--target", type=int, required=True)
    p.add_argument("--absorber", type=int, default=None)
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--max-steps", type=int, default=1_000_000)
    p.add_argument("--boundary-mode", default="free", choices=["free", "wired"])
    p.add_argument("--radius", type=int, default=8)
    p.set_defaults(fn=cmd_walk)

    p = sub.add_parser("verify-all");  _network_args(p); _common_args(p)
    p.set_defaults(fn=cmd_verify_all)
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
