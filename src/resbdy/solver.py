"""Pinned Laplace solves for energy kernels, monopoles, and effective resistance.

Level solves come in two boundary flavors:

* free: the window G_k is treated as a finite network in itself. The system
  uses only edges inside the window, the kernel of the form is the constants,
  and the solution is pinned by fixing value(o) = 0.
* wired: every boundary vertex of G_k is shorted into one grounded auxiliary
  node, keeping the edges from the interior to the boundary. For balanced
  dipole charges this agrees with merging-without-grounding; for monopoles the
  grounded short is where the unit current exits.

Exhaustion drivers iterate windows, apply the stopping rule (three consecutive
relative deltas below tol, or saturation on finite networks), and return the
telemetry as a ConvergenceReport instead of raising on non-convergence.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import _hifi
from .energy import (Potential, SubgraphView, energy, window_defect,
                     window_edges)
from .errors import InvalidParameters, SolverFailure
from .network import (Exhaustion, default_exhaustion, doubling_exhaustion,
                      generator_for)

DYNAMIC_RANGE_GUARD = 1e10


def _window_subgraph_laplacian(net, window):
    """Laplacian of the window's edges, indexed by position in ``window.vertices``."""
    ec, ei, ej = window_edges(window)
    w = len(window.vertices)
    adj = sp.coo_matrix(
        (np.concatenate([ec, ec]),
         (np.concatenate([ei, ej]), np.concatenate([ej, ei]))),
        shape=(w, w)).tocsr()
    c_w = np.asarray(adj.sum(axis=1)).ravel()
    return (sp.diags(c_w) - adj).tocsr()


def _solve_float64(net, window, keep, rhs_vec):
    """Solve on the window positions ``keep`` (a boolean mask over them)."""
    L = _window_subgraph_laplacian(net, window)
    sub = L[keep][:, keep].tocsc()
    d = sub.diagonal()
    if np.any(d <= 0):
        raise SolverFailure("window subgraph has an isolated unknown")
    s = 1.0 / np.sqrt(d)
    scaled = (sp.diags(s) @ sub @ sp.diags(s)).tocsc()
    b = rhs_vec[keep]
    try:
        w = spla.spsolve(scaled, s * b)
    except Exception as e:  # pragma: no cover
        raise SolverFailure(str(e)) from None
    sol = s * w
    resid = np.linalg.norm(scaled @ w - s * b)
    if not np.isfinite(sol).all():
        raise SolverFailure("solver produced non-finite values")
    # backward-stable bound: ||r|| <= tol (||b|| + ||A|| ||x||); the Jacobi-scaled
    # operator has unit diagonal and row sums bounded by 2
    guard = 1e-12 * (np.linalg.norm(s * b) + 2.0 * np.linalg.norm(w))
    if resid > max(guard, 1e-300):
        raise SolverFailure(f"residual {resid:.2e} above the stability guard")
    return sol


def pick_lane(net, window, lane="auto"):
    if lane != "auto":
        return lane
    ec = net.ec[window.edge_mask]
    if len(ec) and not np.all(np.isfinite(ec)):
        return "mp"
    rng = ec.max() / ec.min() if len(ec) else 1.0
    return "float64" if rng <= DYNAMIC_RANGE_GUARD else "mp"


def solve_dipole_level(window: SubgraphView, x, bc="free", rhs=None,
                       lane="auto", net=None):
    """Solve Lap v = rhs (default delta_x - delta_o) on one window.

    Returns a pinned Potential (value(o) = 0). With ``bc='wired'`` the window
    boundary is grounded and x, o must be interior. ``lane`` is 'auto',
    'float64', 'mp', or 'fraction'; auto picks float64 until the window's
    conductance dynamic range passes 1e10.
    """
    net = net or window.net
    o = net.origin
    if rhs is None:
        rhs = {int(x): 1, o: -1}
    rhs = {int(k): v for k, v in rhs.items() if v != 0}
    for v in rhs:
        if v not in window:
            raise InvalidParameters(f"rhs vertex {v} is outside the window")
    if bc == "wired" and len(window.bd) == 0:
        bc = "free"  # nothing to short: the window is a whole finite network
    if bc == "free":
        if o not in window:
            raise InvalidParameters("free solve needs the origin inside the window")
        dirichlet = ()
        pin = o
    elif bc == "wired":
        dirichlet = window.bd
        pin = None
        bad = [v for v in rhs if not window.is_interior(v)]
        if bad:
            raise InvalidParameters(
                f"wired solve needs charge vertices in the interior, got {bad}")
    else:
        raise InvalidParameters(f"unknown boundary condition {bc!r}")

    lane = pick_lane(net, window, lane)
    if lane not in ("float64", "mp", "fraction"):
        raise InvalidParameters(f"unknown lane {lane!r}")
    values = np.zeros(net.n)
    hi = None
    if lane == "float64":
        verts = window.vertices
        keep = np.ones(len(verts), dtype=bool)
        keep[np.searchsorted(verts, dirichlet)] = False
        if pin is not None:
            keep[np.searchsorted(verts, pin)] = False
        rhs_vec = np.zeros(len(verts))
        rhs_vec[np.searchsorted(verts, list(rhs))] = list(rhs.values())
        sol = _solve_float64(net, window, keep, rhs_vec)
        values[verts[keep]] = sol
    else:
        field = (_hifi.FractionField() if lane == "fraction"
                 else _hifi.MPField(_hifi.auto_dps(net, window.edge_mask,
                                                   len(window.vertices))))
        with _hifi.workdps(field.dps):
            sol = _hifi.hi_solve(net, window, rhs, dirichlet_zero=dirichlet,
                                 pin=pin, field=field)
            off = sol[o]
            hi = [sol[int(v)] - off for v in window.vertices]
        values[window.vertices] = [float(x) for x in hi]
        return Potential(net, values, window, pinned=True, hi=hi,
                         dps=field.dps)
    pot = Potential(net, values, window, pinned=False)
    if values[o] != 0:
        return pot.pinned_copy()
    pot.pinned = True
    return pot


@dataclass
class ConvergenceReport:
    """Per-level telemetry of an exhaustion limit."""

    quantity: str
    tol: float
    radii: list = dc_field(default_factory=list)
    sizes: list = dc_field(default_factory=list)
    values: list = dc_field(default_factory=list)
    deltas: list = dc_field(default_factory=list)
    defects: list = dc_field(default_factory=list)
    converged: bool = False
    diverged: bool = False
    stopping_rule: str = ""
    extra: dict = dc_field(default_factory=dict)

    @property
    def inconclusive(self):
        return not (self.converged or self.diverged)

    @property
    def limit(self):
        return self.values[-1] if (self.converged and self.values) else None

    def record(self, radius, size, value, defect=None):
        self.radii.append(int(radius))
        self.sizes.append(int(size))
        self.values.append(float(value))
        if len(self.values) >= 2:
            prev, cur = self.values[-2], self.values[-1]
            denom = max(abs(cur), 1e-300)
            self.deltas.append(abs(cur - prev) / denom)
        if defect is not None:
            self.defects.append(defect.to_dict())

    def assess(self, saturated=False, divergence_threshold=None):
        if saturated:
            self.converged = True
            self.stopping_rule = "saturated"
            return True
        if len(self.deltas) >= 3 and all(d < self.tol for d in self.deltas[-3:]):
            self.converged = True
            self.stopping_rule = "three-deltas-below-tol"
            return True
        if (divergence_threshold is not None and len(self.values) >= 3
                and self.values[-1] > divergence_threshold
                and self.values[-3] < self.values[-2] < self.values[-1]):
            self.diverged = True
            self.stopping_rule = "threshold-with-increasing-trend"
            return True
        return False

    def to_dict(self):
        return {
            "quantity": self.quantity,
            "tol": self.tol,
            "radii": self.radii,
            "sizes": self.sizes,
            "values": self.values,
            "relative_deltas": self.deltas,
            "converged": self.converged,
            "diverged": self.diverged,
            "inconclusive": self.inconclusive,
            "stopping_rule": self.stopping_rule,
            "defects": self.defects,
            "extra": self.extra,
        }


def _saturated(view):
    net = view.net
    return net.is_saturated and len(view.vertices) == net.n


def energy_kernel(source, x, bc="free", exhaustion=None, levels=30, tol=1e-8,
                  lane="auto", track_defect=False):
    """Exhaustion limit of the dipole solves Lap v = delta_x - delta_o.

    Tracks R_k = v^(k)(x) (pinned), stops by the three-delta rule or window
    saturation, and returns (Potential, ConvergenceReport). Non-convergence is
    flagged on the report, never raised.
    """
    exh = (exhaustion if exhaustion is not None
           else default_exhaustion(source, levels))
    report = ConvergenceReport(quantity=f"energy_kernel(x={x}, bc={bc})", tol=tol)
    pot = None
    for radius, view in exh:
        if bc == "wired":
            if not (view.is_interior(x) and view.is_interior(view.net.origin)):
                continue
        elif x not in view:
            continue
        pot = solve_dipole_level(view, x, bc=bc, lane=lane)
        defect = window_defect(pot) if track_defect else None
        report.record(radius, len(view.vertices), pot.value(x), defect)
        if report.assess(saturated=_saturated(view)):
            break
    if pot is None:
        raise InvalidParameters(f"vertex {x} never entered the exhaustion")
    report.extra["max_principle_ok"] = bool(
        np.all(pot.values[pot.window.vertices] >= -1e-9)
        and np.all(pot.values[pot.window.vertices] <= pot.value(x) + 1e-9)) \
        if bc == "free" else None
    return pot, report


def effective_resistance(source, x, y=None, bc="free", exhaustion=None,
                         levels=30, tol=1e-8, lane="auto"):
    """Effective resistance R(x, y) as an exhaustion limit.

    Computed per level from the single dipole solve Lap v = delta_x - delta_y:
    R_k = v(x) - v(y), which equals the energy of the solution. With y = o
    this is v_x(x), the energy of the kernel at x.
    """
    gen = generator_for(source)
    if y is None:
        y = gen.ball(1).origin
    x, y = int(x), int(y)
    exh = (exhaustion if exhaustion is not None
           else default_exhaustion(source, levels))
    report = ConvergenceReport(quantity=f"resistance({x},{y}, bc={bc})", tol=tol)
    value = None
    for radius, view in exh:
        if bc == "wired":
            if not (view.is_interior(x) and view.is_interior(y)):
                continue
        elif not (x in view and y in view):
            continue
        if x == y:
            report.converged = True
            report.stopping_rule = "identical-vertices"
            report.values = [0.0]
            return 0.0, report
        pot = solve_dipole_level(view, x, bc=bc, rhs={x: 1, y: -1}, lane=lane)
        value = pot.value(x) - pot.value(y)
        # dual route: on the level network, energy(v) = v(x) - v(y) exactly
        dev = abs(energy(pot, pot) - value)
        report.extra["max_energy_value_dev"] = max(
            report.extra.get("max_energy_value_dev", 0.0), dev)
        report.record(radius, len(view.vertices), value)
        if report.assess(saturated=_saturated(view)):
            break
    if value is None:
        raise InvalidParameters("x and y never entered the exhaustion together")
    return value, report


@dataclass
class MonopoleResult:
    potential: Potential
    report: ConvergenceReport
    transient: object  # True, False, or None for inconclusive


def monopole(source, x=None, exhaustion=None, levels=22, tol=1e-8,
             divergence_threshold=1e6, schedule="doubling", lane="auto"):
    """Wired exhaustion limit of Lap w = delta_x with per-level energies.

    transient=True when the energies satisfy the convergence rule (bounded
    limit exists: the network supports a finite-energy monopole), False when
    they pass the divergence threshold with increasing trend, None otherwise.
    A doubling schedule cuts each level from its own ball (generator indices
    are stable), keeping divergence triage at deep radii affordable.
    """
    gen = generator_for(source)
    if exhaustion is None:
        exhaustion = (doubling_exhaustion(gen, levels)
                      if schedule == "doubling"
                      else default_exhaustion(gen, levels))
    x = int(x) if x is not None else gen.ball(1).origin
    report = ConvergenceReport(quantity=f"monopole_energy(x={x})", tol=tol)
    pot = None
    for radius, view in exhaustion:
        if not view.is_interior(x):
            continue
        if _saturated(view) and len(view.bd) == 0:
            # a fully materialized finite network supports no monopole:
            # Lap w = delta_x has no solution (charge cannot exit)
            report.stopping_rule = "finite-network-no-monopole"
            report.diverged = True
            break
        pot = solve_dipole_level(view, x, bc="wired", rhs={x: 1}, lane=lane)
        e = energy(pot, pot)
        report.record(radius, len(view.vertices), e)
        if report.assess(divergence_threshold=divergence_threshold):
            break
    if pot is None and not report.diverged:
        raise InvalidParameters(f"vertex {x} never entered the exhaustion")
    transient = True if report.converged else (False if report.diverged else None)
    return MonopoleResult(potential=pot, report=report, transient=transient)


def exhaustion_independence(source, x, y=None, tol=1e-8, levels=24, lane="auto"):
    """Compare two radius schedules for the same limit.

    Declared limits must agree within 10*tol when both schedules converge;
    when either is still moving at its level budget, the comparison is
    inconclusive rather than a failure (the disagreement of two unconverged
    prefixes carries no information about exhaustion independence).
    """
    gen = generator_for(source)
    r1, rep1 = effective_resistance(gen, x, y, levels=levels, tol=tol, lane=lane)
    alt = Exhaustion.build(gen, sorted({max(1, 2 * k) for k in range(1, levels // 2 + 2)}))
    r2, rep2 = effective_resistance(gen, x, y, exhaustion=alt, tol=tol, lane=lane)
    both = rep1.converged and rep2.converged
    agree = abs(r1 - r2) <= 10 * tol * max(1.0, abs(r1))
    verdict = ("agree" if (both and agree) else
               "disagree" if both else "inconclusive")
    return {
        "value_schedule_linear": r1,
        "value_schedule_even": r2,
        "agree_within_10_tol": bool(agree),
        "converged": bool(both),
        "verdict": verdict,
    }
