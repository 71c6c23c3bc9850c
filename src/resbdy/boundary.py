"""Boundary machinery: Gauss-Green decompositions, boundary sums, paths to infinity.

On each finite window H the summation-by-parts identity is algebraic:

    energy_H(u, v) = sum_{int H} u Lap(v) + sum_{bd H} u dn(v),

with dn the normal derivative (Laplacian restricted to neighbors inside H).
Exhaustion drivers monitor how the two pieces converge: for v in the span of
dipoles and monopoles the interior part stabilizes and the boundary part
carries the harmonic content. For harmonic u the per-level boundary sums
against dn(h_x) recover u(x) - u(o).

Boundary points are equivalence classes of paths to infinity; a path acts on
potentials through the limit of the harmonic part's values along it, and two
paths separate exactly when some probe in the monopole/dipole span keeps the
evaluations apart.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _hifi
from .energy import (Potential, edge_energy, edge_laplacian, energy, field_of,
                     potential_difference, value_getter, window_edges,
                     window_values)
from .errors import InvalidParameters, NotHarmonic
from .network import default_exhaustion
from .solver import solve_dipole_level


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


def gauss_green_verify(u: Potential, v: Potential, exhaustion=None, levels=None):
    """Decompose <u, v> into interior and boundary sums over an exhaustion.

    Both potentials must live on one ambient window. ``levels`` may be a list
    of SubgraphViews; by default the ambient's level structure is used. The
    report carries, per level, the interior sum over int G_k of u Lap v, the
    boundary sum of u dn v, their total, the window energy (equal to the total
    up to roundoff: that is the split identity), and the deviation from the
    full-window energy.
    """
    net = u.net
    if exhaustion is not None:
        views = [view for _, view in exhaustion]
        radii = list(exhaustion.radii)
    elif levels is not None:
        views = list(levels)
        radii = [int(net.level[w.vertices].max()) for w in views]
    else:
        rmax = int(net.level.max())
        radii = list(range(1, rmax + 1))
        views = [net.ball_view(r) for r in radii]
    target = energy(u, v)
    rep = GaussGreenReport(target=target)
    for r, view in zip(radii, views):
        edges = window_edges(view)
        uw, vw = u.values[view.vertices], v.values[view.vertices]
        lap_v = edge_laplacian(*edges, vw)
        bd = view.bd_mask[view.vertices]
        interior = float(np.sum(uw[~bd] * lap_v[~bd]))
        bnd = float(np.sum(uw[bd] * lap_v[bd]))
        total = interior + bnd
        wen = float(edge_energy(*edges, uw, vw))
        rep.radii.append(int(r))
        rep.interior.append(interior)
        rep.boundary.append(bnd)
        rep.totals.append(total)
        rep.window_energies.append(wen)
        rep.deviations.append(total - target)
        # np.maximum keeps a NaN, which max() would drop
        rep.split_identity_dev = float(np.maximum(rep.split_identity_dev,
                                                  abs(total - wen)))
    return rep


def finite_gauss_green_deviation(u: Potential, v: Potential) -> float:
    """|energy(u, v) - sum_x u(x) Lap v(x)| on a fully materialized network."""
    net = u.net
    if not net.is_saturated:
        raise InvalidParameters("finite form needs a fully materialized network")
    lap_v = net.laplacian() @ v.values
    return float(abs(energy(u, v) - np.sum(u.values * lap_v)))


@dataclass
class BoundarySumReport:
    x: int
    target: float
    radii: list = field(default_factory=list)
    sums: list = field(default_factory=list)

    @property
    def final_deviation(self):
        return abs(self.sums[-1] - self.target) if self.sums else None

    def to_dict(self):
        return {
            "x": self.x,
            "target": self.target,
            "levels": [{"radius": r, "boundary_sum": s}
                       for r, s in zip(self.radii, self.sums)],
            "final_deviation": self.final_deviation,
        }


def boundary_sum_harmonic(source, u_values, x, levels=30, exhaustion=None,
                          lane="auto", target=None, harm_residual=None,
                          harm_tol=1e-6):
    """Per-level sums over bd G_k of u dn(h_x), converging to u(x) - u(o).

    ``u_values`` maps vertex id -> value of the harmonic function (callable,
    dict, or Potential). The harmonic kernel component h_x is rebuilt per
    level from the free and wired solves of that level, per the free-level
    design: h^(k) = v^(k) - f^(k) is exactly harmonic inside G_k and its
    normal derivative sums carry the boundary representation.
    """
    if harm_residual is not None and not (harm_residual <= harm_tol):
        raise NotHarmonic(
            f"u has harmonic residual {harm_residual:.3e} > {harm_tol:.1e}")
    getter = value_getter(u_values)
    exh = exhaustion or default_exhaustion(source, levels)
    rep = None
    for radius, view in exh:
        o = view.net.origin
        if not (view.is_interior(x) and view.is_interior(o)):
            continue
        if rep is None:
            if target is None:
                target = float(getter(int(x))) - float(getter(o))
            rep = BoundarySumReport(x=int(x), target=float(target))
        v = solve_dipole_level(view, x, bc="free", lane=lane)
        f = solve_dipole_level(view, x, bc="wired", lane=lane)
        h = potential_difference(v, f)
        hw = window_values(h)
        with _hifi.workdps(_hifi.EDGE_SUM_DPS):
            lap = edge_laplacian(*window_edges(view, field_of(hw)), hw)
            bd = view.bd_mask[view.vertices]
            u_bd = np.array([float(getter(int(bv))) for bv in view.vertices[bd]])
            s = np.sum(u_bd * lap[bd])
        rep.radii.append(int(radius))
        rep.sums.append(float(s))
    if rep is None:
        raise InvalidParameters(f"vertex {x} never entered the exhaustion")
    return rep


class PathToInfinity:
    """Infinite path of successively adjacent vertices, given by n -> vertex id."""

    def __init__(self, generator, vertex_fn, name="path"):
        self.generator = generator
        self.vertex_fn = vertex_fn
        self.name = name
        self._cache = []

    def prefix(self, n):
        while len(self._cache) <= n:
            self._cache.append(int(self.vertex_fn(len(self._cache))))
        return self._cache[: n + 1]

    def validate(self, horizon, net=None):
        """Check successive adjacency and escape from every ball up to horizon."""
        net = net or self.generator.ball(horizon + 2)
        ids = self.prefix(horizon)
        lev = net.level
        for a, b in zip(ids, ids[1:]):
            na, ca = net.neighbors(a)
            if b not in set(na.tolist()):
                raise InvalidParameters(
                    f"path {self.name}: {a} and {b} are not adjacent")
        if not lev[ids[-1]] >= horizon - 1:
            raise InvalidParameters(
                f"path {self.name} does not leave the radius-{horizon} ball")
        return True


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
    def equivalent(self):
        return self.verdict == "equivalent-evidence"

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
    prefixes up to the horizon. A probe whose gap stabilizes above
    separation_tol certifies inequivalence; all gaps staying below path_tol
    near the horizon is evidence (never proof: the probe list is finite) for
    equivalence. Anything else is inconclusive.
    """
    ids1, ids2 = p1.prefix(horizon), p2.prefix(horizon)
    evidences = []
    separated_by = None
    all_small = True
    for name, pot in probes:
        if not (pot.window.mask[ids1[-1]] and pot.window.mask[ids2[-1]]):
            raise InvalidParameters(
                f"probe {name} does not cover the horizon-{horizon} prefixes")
        gaps = [abs(pot.values[a] - pot.values[b]) for a, b in zip(ids1, ids2)]
        q = max(1, len(gaps) // 4)
        last_q = gaps[-q:]
        final = gaps[-1]
        spread = max(last_q) - min(last_q)
        stabilized = spread <= max(path_tol, 0.05 * max(final, 1e-300))
        ev = ProbeEvidence(probe=name, gaps=[float(g) for g in gaps],
                           final_gap=float(final),
                           max_gap_last_quarter=float(max(last_q)),
                           stabilized=bool(stabilized))
        evidences.append(ev)
        if stabilized and final > separation_tol and separated_by is None:
            separated_by = name
        if max(last_q) >= path_tol:
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
    if not all(harm_part.window.mask[v] for v in (ids[0], ids[-1])):
        raise InvalidParameters("harmonic part does not cover the path prefix")
    o = harm_part.net.origin
    series = [float(harm_part.values[v] - harm_part.values[o]) for v in ids]
    q = max(1, len(series) // 4)
    tail = series[-q:]
    stabilized = (max(tail) - min(tail)) <= path_tol
    return BoundaryPointEval(path=path.name, value=series[-1],
                             stabilized=bool(stabilized),
                             series_tail=[float(t) for t in tail[-8:]])
