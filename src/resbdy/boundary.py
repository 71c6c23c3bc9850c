"""Boundary machinery: Gauss-Green decompositions, boundary sums, paths to infinity.

On each finite window H the summation-by-parts identity is algebraic:

    energy_H(u, v) = sum_{int H} u Lap(v) + sum_{bd H} u dn(v),

with dn the normal derivative (Laplacian restricted to neighbors inside H).
Exhaustion drivers monitor how the two pieces converge: for v in the span of
dipoles and monopoles the interior part stabilizes and the boundary part
carries the harmonic content. For harmonic u the per-level boundary sums
against dn(h_x) recover u(x) - u(o). There h_x = v_x - f_x, the free solve
less the wired one; the free solve has no flow across bd G_k, so on bd G_k
dn(h_x) = -dn(f_x), and the sums need the wired solves alone.

Boundary points are equivalence classes of paths to infinity; a path acts on
potentials through the limit of the harmonic part's values along it, and two
paths separate exactly when some probe in the monopole/dipole span keeps the
evaluations apart.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .energy import (Potential, edge_currents, edge_ends, energy,
                     flow_laplacian, value_getter, window_laplacian)
from .errors import DomainMismatch, InvalidParameters, NotHarmonic
from .network import default_exhaustion
# nothing here calls solve_dipole_level: perfbench/selftest.py wants it held by name
from .solver import _limit, check, solve_dipole_level  # noqa: F401

# the largest Laplacian residual at which a function counts as harmonic: the
# Royden split's check and require_harmonic read it
HARM_TOL = 1e-6
# the largest |interior + boundary sum - window energy| of a Gauss-Green
# split, per unit of 1 + |<u, v>|
SPLIT_TOL = 1e-8
# the largest |last level's boundary sum - (u(x) - u(o))| of a boundary sum
SUM_TOL = 1e-3


def require_harmonic(residual):
    """NotHarmonic unless a Laplacian residual is within HARM_TOL (a NaN is
    not); None, a residual not measured, passes."""
    if residual is not None and not check("harmonic", residual, HARM_TOL).passed:
        raise NotHarmonic(f"harmonic residual {residual:.3e} exceeds {HARM_TOL:.1e}")


@dataclass
class GaussGreenReport:
    """Per-level interior/boundary decomposition of the energy product."""

    target: float
    radii: list = field(default_factory=list)
    interior: list = field(default_factory=list)
    boundary: list = field(default_factory=list)
    totals: list = field(default_factory=list)
    window_energies: list = field(default_factory=list)
    deviations: list = field(default_factory=list)
    split_identity_dev: float = 0.0

    @property
    def check(self):
        return check("gauss-green-split-identity", self.split_identity_dev,
                     SPLIT_TOL * (1 + abs(self.target)))

    def to_dict(self):
        return {
            "target_energy": self.target,
            "levels": [
                {
                    "radius": r, "interior_sum": i, "boundary_sum": b,
                    "total": t, "window_energy": w, "deviation_from_target": d,
                }
                for r, i, b, t, w, d in zip(self.radii, self.interior,
                                            self.boundary, self.totals,
                                            self.window_energies, self.deviations)
            ],
            "split_identity_dev": self.split_identity_dev,
        }


def gauss_green_verify(u: Potential, v: Potential, radii=None):
    """Decompose <u, v> into interior and boundary sums over an exhaustion.

    Level r is ``u.net.ball_view(r)``, the ball of radius r of the
    potentials' own network, which must lie inside their window; by default
    ``radii`` are those of every such ball. The report carries, per level,
    the interior sum over int G_k of u Lap v, the boundary sum of u dn v,
    their total, the window energy (equal to the total up to roundoff: that
    is the split identity), and the deviation from the full-window energy.
    Every sum runs over the potentials' ``edge_currents``, in their field,
    as ``energy`` does: a ball's edges are some of the window's, picked by
    the window's ``edge_index``.
    """
    if radii is None:
        # the balls below the lowest level that the window leaves out
        top = np.min(u.net.level[~u.window.mask], initial=u.net.level.max() + 1)
        radii = range(1, int(top))
    target = energy(u, v)
    rep = GaussGreenReport(target=target)
    # each window edge's current of v and energy term, formed once
    c, a, b, (iu, iv) = edge_currents(u.window, u, v)
    uw = u.w.astype(c.dtype, copy=False)
    terms = iu * (iv / c)
    for r in radii:
        view = u.net.ball_view(r)
        at = u.window.index(view.vertices)
        ends, a, b = edge_ends(view)
        sel = u.window.edge_index[ends]
        lap_v = flow_laplacian(a, b, iv[sel], len(at))
        wen = np.sum(terms[sel], initial=0)
        bd = view.bd_mask[view.vertices]
        interior = np.sum(uw[at][~bd] * lap_v[~bd])
        bnd = np.sum(uw[at][bd] * lap_v[bd])
        total = interior + bnd
        rep.radii.append(int(r))
        rep.interior.append(float(interior))
        rep.boundary.append(float(bnd))
        rep.totals.append(float(total))
        rep.window_energies.append(float(wen))
        rep.deviations.append(float(total - target))
        # np.maximum keeps a NaN, which max() would drop
        rep.split_identity_dev = float(np.maximum(rep.split_identity_dev,
                                                  float(abs(total - wen))))
    return rep


def finite_gauss_green_deviation(u: Potential, v: Potential) -> float:
    """|energy(u, v) - sum_x u(x) Lap v(x)| by the CSR Laplacian of a fully
    materialized network; u and v must live on the whole network."""
    net = u.net
    if not net.is_saturated:
        raise InvalidParameters("finite form needs a fully materialized network")
    if not all(len(p.window.vertices) == net.n for p in (u, v)):
        raise DomainMismatch("finite form needs potentials on the whole network")
    uw, vw = u.w.astype(float), v.w.astype(float)
    return float(abs(energy(u, v) - np.sum(uw * (net.laplacian() @ vw))))


@dataclass
class BoundarySumReport:
    x: int
    target: float
    radii: list = field(default_factory=list)
    sums: list = field(default_factory=list)

    @property
    def final_deviation(self):
        return abs(self.sums[-1] - self.target) if self.sums else np.nan

    @property
    def check(self):
        """The last level's sum within SUM_TOL of u(x) - u(o)."""
        return check("boundary-sum", self.final_deviation, SUM_TOL)

    def to_dict(self):
        return {
            "x": self.x,
            "target": self.target,
            "levels": [{"radius": r, "boundary_sum": s}
                       for r, s in zip(self.radii, self.sums)],
            "final_deviation": self.final_deviation,
        }


def boundary_sum_harmonic(source, u_values, x, levels=30, lane="auto"):
    """Per-level sums over bd G_k of u dn(h_x), converging to u(x) - u(o).

    ``u_values`` maps vertex id -> value of the harmonic function (a callable
    or a Potential). On each level h_x = v_x - f_x, the free solve less the
    wired one, is harmonic inside G_k, and its normal derivative sums carry
    the boundary representation. The free solve's window Laplacian is
    delta_x - delta_o, which vanishes on bd G_k: there dn(h_x) = -dn(f_x),
    so each level needs its wired solve alone.
    """
    getter = value_getter(u_values)
    rep = None

    def record(radius, view, _, f):
        nonlocal rep
        if rep is None:
            target = float(getter(int(x))) - float(getter(view.net.origin))
            rep = BoundarySumReport(x=int(x), target=target)
        lap = window_laplacian(f)
        bd = view.bd_mask[view.vertices]
        u_bd = np.array([float(getter(int(bv))) for bv in view.vertices[bd]])
        s = -np.sum(u_bd * lap[bd])
        rep.radii.append(int(radius))
        rep.sums.append(float(s))

    _limit(default_exhaustion(source, levels), x, {"wired": None}, record,
           lane=lane)
    return rep


class PathToInfinity:
    """Infinite path of successively adjacent vertices, given by n -> vertex id."""

    def __init__(self, vertex_fn, name="path"):
        self.vertex_fn = vertex_fn
        self.name = name

    def prefix(self, n):
        """The path's first n + 1 vertices, n >= 0."""
        if n < 0:
            raise InvalidParameters(f"a path prefix needs n >= 0, not {n}")
        return [int(self.vertex_fn(k)) for k in range(n + 1)]


@dataclass
class ProbeEvidence:
    probe: str
    gaps: list
    final_gap: float
    max_gap_last_quarter: float
    stabilized: bool

    def to_dict(self):
        return {
            "probe": self.probe,
            "final_gap": self.final_gap,
            "max_gap_last_quarter": self.max_gap_last_quarter,
            "stabilized": self.stabilized,
            "gaps_sampled": self.gaps[:: max(1, len(self.gaps) // 16)],
        }


@dataclass
class PathEquivalenceEvidence:
    verdict: str  # "equivalent-evidence", "separated", "inconclusive"
    horizon: int
    path_tol: float
    separation_tol: float
    probes: list
    certifying_probe: str = ""

    @property
    def check(self):
        return check("path-verdict", self.verdict,
                     passed=self.verdict != "inconclusive")

    def to_dict(self):
        return {
            "verdict": self.verdict,
            "horizon": self.horizon,
            "path_tol": self.path_tol,
            "separation_tol": self.separation_tol,
            "certifying_probe": self.certifying_probe,
            "probes": [p.to_dict() for p in self.probes],
        }


def path_equivalence(p1: PathToInfinity, p2: PathToInfinity, probes,
                     horizon=200, path_tol=1e-4, separation_tol=1e-2):
    """Compare two paths through a finite probe list.

    ``probes`` is a list of (name, Potential) pairs, each covering both path
    prefixes up to the horizon; an uncovered vertex raises DomainMismatch. A
    probe whose gap stabilizes above separation_tol certifies inequivalence;
    all gaps staying below path_tol near the horizon is evidence (never
    proof: the probe list is finite) for equivalence. Anything else is
    inconclusive.
    """
    ids1, ids2 = p1.prefix(horizon), p2.prefix(horizon)
    evidences = []
    separated_by = None
    all_small = True
    for name, pot in probes:
        gaps = np.abs(pot.at(ids1) - pot.at(ids2)).tolist()
        q = max(1, len(gaps) // 4)
        last_q = gaps[-q:]
        final = gaps[-1]
        # np.max and np.min keep a NaN, which max() and min() would drop
        top = np.max(last_q)
        spread = top - np.min(last_q)
        stabilized = spread <= max(path_tol, 0.05 * max(final, 1e-300))
        ev = ProbeEvidence(probe=name, gaps=gaps,
                           final_gap=float(final),
                           max_gap_last_quarter=float(top),
                           stabilized=bool(stabilized))
        evidences.append(ev)
        if stabilized and final > separation_tol and separated_by is None:
            separated_by = name
        if not (top < path_tol):
            all_small = False
    if separated_by is not None:
        verdict = "separated"
    elif all_small:
        verdict = "equivalent-evidence"
    else:
        verdict = "inconclusive"
    return PathEquivalenceEvidence(verdict=verdict, horizon=horizon,
                                   path_tol=path_tol,
                                   separation_tol=separation_tol,
                                   probes=evidences,
                                   certifying_probe=separated_by or "")


@dataclass
class BoundaryPointEval:
    path: str
    value: float
    stabilized: bool
    series_tail: list

    def to_dict(self):
        return {"path": self.path, "value": self.value,
                "stabilized": self.stabilized, "series_tail": self.series_tail}


def boundary_point_eval(path: PathToInfinity, harm_part: Potential,
                        horizon=200, path_tol=1e-4):
    """Evaluate a boundary point on a potential via its harmonic part.

    The boundary point acts by lim_n h(x_n) - h(o) along any representative
    path; stabilization within path_tol over the last quarter of the horizon
    is required before the value is declared (NotStabilized is reported as a
    flag, with the tail series returned as evidence).
    """
    ids = path.prefix(horizon)
    o = harm_part.net.origin
    series = (harm_part.at(ids) - harm_part.at(o)).tolist()
    q = max(1, len(series) // 4)
    tail = series[-q:]
    # np.max and np.min keep a NaN, which max() and min() would drop
    stabilized = (np.max(tail) - np.min(tail)) <= path_tol
    return BoundaryPointEval(path=path.name, value=series[-1],
                             stabilized=bool(stabilized),
                             series_tail=tail[-8:])
