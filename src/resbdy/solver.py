"""Pinned Laplace solves for energy kernels, monopoles, and effective resistance.

Level solves come in two boundary flavors:

* free: the window G_k is treated as a finite network in itself. The system
  uses only edges inside the window, the kernel of the form is the constants,
  and the solution is pinned by fixing value(o) = 0.
* wired: every boundary vertex of G_k is shorted into one grounded auxiliary
  node, keeping the edges from the interior to the boundary. For balanced
  dipole charges this agrees with merging-without-grounding; for monopoles the
  grounded short is where the unit current exits.

Either way the window gives one grounded system, built by
``_hifi.grounded_system`` in the form every lane eliminates: the unknowns
are the window's vertices minus the held ones (o for free, bd G_k for
wired), each with its conductance g to the held ones, the edges between
unknowns merged one per pair, and the right-hand side signed. Every lane
eliminates it without subtracting (the GTH elimination, see ``_hifi``): the
mp and Fraction lanes one unknown at a time in ``_hifi.hi_solve`` (in mp, at
one fixed precision), which also carries the current on every window edge;
the float64 lane in numpy rounds, each of which eliminates an independent
set of unknowns of near-minimum degree at once (Luby, SIAM J. Comput. 15(4),
1986). When the rounds stop shrinking the system, its Schur complement goes
to SuperLU. The Potential keeps the window solution minus its value at o, in
the lane's field, and in the mp and Fraction lanes the edge currents.

A round holds only what its next step reads, and drops each temporary once
it is used: the old edge arrays go before the merge builds the new ones. It
keeps for back-substitution the window positions of its chosen unknowns,
their y_k = b_k / d_k, and for each of their edges the rank of k among the
chosen, the window position of j and t_kj; the indices are int32 while the
window has fewer than 2^31 vertices, and back-substitution frees each round
as it uses it. The index arrays the rounds gather by (the edge ends and the
grouped k and j) stay int64, which numpy's gathers and ``bincount`` read
faster. One wired solve on the 1M-vertex Z^1 window peaks at about 115
bytes per vertex (tracemalloc).

Every exhaustion driver iterates one level loop, ``_limit``, which admits
the levels, solves and applies each side's stopping rule (three consecutive
relative deltas below tol, saturation on finite networks, or a divergence
threshold passed with an increasing trend). The drivers record each level's
value and return the telemetry as a ConvergenceReport instead of raising on
non-convergence; a Royden split takes both of its limits from one pass.
Each level, ball, view and potentials, is dropped before the next one is
built; ``_limit`` hands a driver its last potential once that side is
decided or its schedule has run out.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import asdict, dataclass, field as dc_field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import _hifi
from .energy import Potential, SubgraphView, energy
from .errors import InvalidParameters, SingularSystem, SolverFailure
from .network import Exhaustion, default_exhaustion, doubling_exhaustion

DYNAMIC_RANGE_GUARD = 1e10


# While more than SMALL unknowns are live, a round takes only unknowns of
# degree at most DEGREE_CAP, so that eliminating one adds at most 15 fill
# edges, and the rounds stop once a round would take fewer than 1/8 of them:
# SuperLU solves what is left.
DEGREE_CAP = 6
SMALL = 64


def _hash(pos):
    """A bijective 64-bit mix of window positions (the splitmix64 finalizer)."""
    z = pos.astype(np.uint64)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xbf58476d1ce4e5b9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94d049bb133111eb)
    return z ^ (z >> np.uint64(31))


def _independent_set(cand, u, v, prio):
    """An independent set of candidates, by up to three Luby passes: each pass
    takes the open candidates whose hash is below every open neighbour's, then
    closes them and their neighbours."""
    chosen = np.zeros(len(cand), dtype=bool)
    open_ = cand.copy()
    for _ in range(3):
        both = np.flatnonzero(open_[u] & open_[v])
        u, v = u[both], v[both]
        win = open_.copy()
        win[np.where(prio[u] < prio[v], v, u)] = False
        chosen |= win
        open_ &= ~win
        open_[v[np.flatnonzero(win[u])]] = False
        open_[u[np.flatnonzero(win[v])]] = False
        if not open_.any():
            break
    return chosen


def _solve_float64(window, held, rhs):
    """The window solution over ``window.vertices``, 0 at the held vertices.

    GTH elimination (see ``_hifi``) in rounds of independent unknowns of
    near-minimum degree; what the rounds leave goes to SuperLU.
    """
    live, g, (u, v, c), load = _hifi.grounded_system(window, held, rhs, float)
    if not np.isfinite(window.net.ec[window.edge_mask]).all():
        raise SolverFailure("the window has a non-finite conductance")
    # each unknown's window position, stored compactly, as are the indices
    # back-substitution reads
    small = np.int32 if len(window.vertices) < 2 ** 31 else np.int64
    prio = _hash(live)
    gid = live.astype(small)
    del live
    rounds = []
    m = len(gid)
    while m:
        deg = np.bincount(u, minlength=m) + np.bincount(v, minlength=m)
        top = max(2, deg.min())
        if m > SMALL:
            top = min(top, DEGREE_CAP)
        chosen = _independent_set(deg <= top, u, v, prio)
        ks = np.flatnonzero(chosen)
        if not len(ks) or (m > SMALL and 8 * len(ks) < m):
            break
        deg = deg[ks]
        apart = range(1, deg.max())
        # each edge at a chosen unknown k, as k, its other end j and c_kj,
        # grouped by k; the edges at no chosen unknown stay
        su, sv = chosen[u], chosen[v]
        iu, iv = np.flatnonzero(su), np.flatnonzero(sv)
        stay = np.flatnonzero(~(su | sv))
        del su, sv
        k = np.concatenate([u[iu], v[iv]])
        order = np.argsort(k, kind="stable")
        k = k[order]
        j = np.concatenate([v[iu], u[iv]])[order]
        ck = np.concatenate([c[iu], c[iv]])[order]
        del order, iu, iv
        # pivot d_k = g_k + sum_j c_kj, and t_kj = c_kj / d_k
        d = g + np.bincount(k, ck, m)
        if not np.all(d[ks] > 0):
            raise SingularSystem("zero pivot: the window may be disconnected")
        t = ck / d[k]
        # k's rank among the chosen is its group's, of deg_k entries
        rounds.append((gid[ks], load[ks] / d[ks],
                       np.repeat(np.arange(len(ks), dtype=small), deg), gid[j], t))
        del d, ks, deg
        # each neighbour j gains t_kj g_k and t_kj b_k; each pair p < q of
        # k's neighbours gains the fill edge t_kp c_kq
        g = g + np.bincount(j, t * g[k], m)
        load = load + np.bincount(j, t * load[k], m)
        p = [np.flatnonzero(k[s:] == k[:-s]) for s in apart]
        q = np.concatenate([np.arange(0)] + [ps + s for ps, s in zip(p, apart)])
        p = np.concatenate([np.arange(0)] + p)
        fu, fv, fc = j[p], j[q], t[p] * ck[q]
        del k, j, ck, t, p, q
        # renumber the live unknowns
        kept, new = _hifi.ranks(~chosen)
        del chosen
        m = len(kept)
        fu, fv = new[fu], new[fv]
        u = np.concatenate([new[u[stay]], np.minimum(fu, fv)])
        v = np.concatenate([new[v[stay]], np.maximum(fu, fv)])
        c = np.concatenate([c[stay], fc])
        del new, stay, fu, fv, fc
        u, v, c = _hifi.merged(u, v, c, m)
        g = g[kept]
        load = load[kept]
        gid = gid[kept]
        prio = prio[kept]
        del kept
    x = np.zeros(len(window.vertices))
    if m:
        x[gid] = _solve_remainder(g, u, v, c, load)
    # each round is dropped once it is used
    while rounds:
        ks, y, kl, jg, t = rounds.pop()
        x[ks] = y + np.bincount(kl, t * x[jg], len(ks))
    if not np.isfinite(x).all():
        raise SolverFailure("solver produced non-finite values")
    return x


def _solve_remainder(g, u, v, c, rhs):
    """SuperLU on the Schur complement the rounds leave, an M-matrix whose
    diagonal is g + sum c, after Jacobi scaling."""
    m = len(g)
    d = g + np.bincount(np.concatenate([u, v]), np.concatenate([c, c]), m)
    if np.any(d <= 0):
        raise SingularSystem("zero pivot: the window may be disconnected")
    diag = np.arange(m)
    rows = np.concatenate([diag, u, v])
    cols = np.concatenate([diag, v, u])
    vals = np.concatenate([d, -c, -c])
    # Jacobi scaling s_i L_ij s_j, rounded as diag(s) @ L @ diag(s) rounds it
    s = 1.0 / np.sqrt(d)
    scaled = sp.csc_matrix(((s[rows] * vals) * s[cols], (rows, cols)),
                           shape=(m, m))
    sb = s * rhs
    try:
        w = spla.spsolve(scaled, sb)
    except Exception as e:  # pragma: no cover
        raise SolverFailure(str(e)) from None
    resid = np.linalg.norm(scaled @ w - sb)
    # backward-stable bound: ||r|| <= tol (||b|| + ||A|| ||x||); the Jacobi-scaled
    # operator has unit diagonal and row sums bounded by 2
    guard = 1e-12 * (np.linalg.norm(sb) + 2.0 * np.linalg.norm(w))
    if resid > max(guard, 1e-300):
        raise SolverFailure(f"residual {resid:.2e} above the stability guard")
    return s * w


def pick_lane(net, window, lane="auto"):
    if lane != "auto":
        return lane
    ec = net.ec[window.edge_mask]
    # an inf mirror or a ratio past the float range fails, as its exact range would
    with np.errstate(over="ignore", invalid="ignore"):
        rng = ec.max() / ec.min() if len(ec) else 1.0
    return "float64" if rng <= DYNAMIC_RANGE_GUARD else "mp"


def solve_dipole_level(window: SubgraphView, x, bc="free", rhs=None,
                       lane="auto"):
    """Solve Lap v = rhs (default delta_x - delta_o, zero at x = o) on one
    window.

    Returns a pinned Potential (value(o) = 0) in the lane's field. With
    ``bc='wired'`` the window boundary is grounded and x, o must be
    interior. ``lane`` is 'auto', 'float64', 'mp', or 'fraction'; auto picks
    float64 until the window's conductance dynamic range passes 1e10.
    """
    net = window.net
    o = net.origin
    if rhs is None:
        rhs = {int(x): 1, o: -1} if int(x) != o else {}
    rhs = {int(k): v for k, v in rhs.items() if v != 0}
    if o not in window:
        raise InvalidParameters("the solve needs the origin inside the window")
    if bc == "wired" and len(window.bd) == 0:
        bc = "free"  # nothing to short: the window is a whole finite network
    if bc == "free":
        held, dirichlet, pin = [o], (), o
    elif bc == "wired":
        held = dirichlet = window.bd
        pin = None
        bad = [v for v in rhs if not window.is_interior(v)]
        if bad:
            raise InvalidParameters(
                f"wired solve needs charge vertices in the interior, got {bad}")
    else:
        raise InvalidParameters(f"unknown boundary condition {bc!r}")

    lane = pick_lane(net, window, lane)
    if lane == "float64":
        sol, cur = _solve_float64(window, held, rhs), None
    elif lane in ("mp", "fraction"):
        field = (_hifi.FractionField() if lane == "fraction"
                 else _hifi.MPField(_hifi.EDGE_SUM_DPS))
        sol, cur = _hifi.hi_solve(net, window, rhs, dirichlet_zero=dirichlet,
                                  pin=pin, field=field)
    else:
        raise InvalidParameters(f"unknown lane {lane!r}")
    # the window solution minus its value at o; the currents do not change
    sol = sol - sol[window.index(o)]
    return Potential(window, sol, i=cur)


# one pass/fail decision of a report: value against bound, or, with bound
# None, a condition whose state is value
Check = namedtuple("Check", "name value bound passed")


def check(name, value, bound=None, passed=None):
    """The Check of value <= bound, which a NaN fails; a condition (no
    bound) gives its ``passed``."""
    return Check(name, value, bound,
                 bool(passed if bound is None else value <= bound))


# each stopping rule and the outcome it decides: True for a converged limit,
# False for a diverged one
STOPPING_RULES = {"saturated": True, "three-deltas-below-tol": True,
                  "identical-vertices": True,
                  "threshold-with-increasing-trend": False,
                  "finite-network-no-monopole": False}


@dataclass
class ConvergenceReport:
    """Per-level telemetry of an exhaustion limit, decided by its stopping
    rule ("" while undecided)."""

    quantity: str
    tol: float
    radii: list = dc_field(default_factory=list)
    sizes: list = dc_field(default_factory=list)
    values: list = dc_field(default_factory=list)
    stopping_rule: str = ""
    extra: dict = dc_field(default_factory=dict)

    @property
    def converged(self):
        return STOPPING_RULES.get(self.stopping_rule) is True

    @property
    def diverged(self):
        return STOPPING_RULES.get(self.stopping_rule) is False

    @property
    def inconclusive(self):
        return self.stopping_rule not in STOPPING_RULES

    @property
    def deltas(self):
        """The relative change of each value from the one before it."""
        return [abs(cur - prev) / max(abs(cur), 1e-300)
                for prev, cur in zip(self.values, self.values[1:])]

    @property
    def check(self):
        """Whether a stopping rule decided the limit, with the rule as value."""
        return check(self.quantity, self.stopping_rule or None,
                     passed=not self.inconclusive)

    def record(self, radius, size, value):
        self.radii.append(int(radius))
        self.sizes.append(int(size))
        self.values.append(float(value))

    def assess(self, saturated=False, divergence_threshold=None):
        """Set the stopping rule that decides the limit now, if one does, on
        an undecided report; whether the limit is decided."""
        deltas = self.deltas
        if saturated:
            self.stopping_rule = "saturated"
        elif len(deltas) >= 3 and all(d < self.tol for d in deltas[-3:]):
            self.stopping_rule = "three-deltas-below-tol"
        elif (divergence_threshold is not None and len(self.values) >= 3
                and self.values[-1] > divergence_threshold
                and self.values[-3] < self.values[-2] < self.values[-1]):
            self.stopping_rule = "threshold-with-increasing-trend"
        return not self.inconclusive

    def to_dict(self):
        return {**asdict(self), "relative_deltas": self.deltas,
                "converged": self.converged, "diverged": self.diverged,
                "inconclusive": self.inconclusive}


def _limit(exhaustion, x, reports, record, rhs=None, charges=(), lane="auto",
           divergence_threshold=None):
    """The level solves of one exhaustion limit per boundary condition.

    ``reports`` maps each boundary condition to its ConvergenceReport, or to
    None for no stopping rule. A level carries a side's solve (``rhs``, by
    default delta_x - delta_o) while its report is undecided and the origin,
    where every level potential is 0, x and ``charges`` lie inside the
    window for a free solve and in its interior for a wired one. Each solve
    goes to ``record(radius, view, bc, potential)``, then the side's
    stopping rule applies; an unbalanced ``rhs`` has no solution on a whole
    finite network, which decides its side (it needs a report) as diverged.
    Stops once every report is decided; InvalidParameters when no level
    admits a side.

    Returns each side's last potential by boundary condition (none for a
    side decided before its first solve). A level is dropped before the
    next one is built: its potentials are kept only for the sides it
    decides, on the schedule's last level, or on a finite network, whose
    levels share it as their ball.
    """
    running, waiting = dict(reports), set(reports)
    unbalanced = rhs is not None and sum(rhs.values()) != 0
    last, final = {}, exhaustion.radii[-1]
    for radius, view in exhaustion:
        # the window is a whole finite network
        whole = view.net.is_saturated and len(view.vertices) == view.net.n
        for bc, report in list(running.items()):
            fits = view.is_interior if bc == "wired" else view.__contains__
            if not all(map(fits, (view.net.origin, x, *charges))):
                continue
            waiting.discard(bc)
            if unbalanced and whole and report.inconclusive:
                report.stopping_rule = "finite-network-no-monopole"
            if report is None or report.inconclusive:
                pot = solve_dipole_level(view, x, bc=bc, rhs=rhs, lane=lane)
                record(radius, view, bc, pot)
                done = report is not None and report.assess(
                    saturated=whole, divergence_threshold=divergence_threshold)
                if done or radius == final or view.net.is_saturated:
                    last[bc] = pot
                if not done:
                    continue
            del running[bc]
        # this level goes before the next one is built
        view = fits = pot = None
        if not running:
            return last
    if waiting:
        ids = list(dict.fromkeys((x, *charges)))
        raise InvalidParameters(
            f"vertex {ids[0]} never entered the exhaustion" if len(ids) == 1
            else f"vertices {ids} never entered the exhaustion together")
    return last


def energy_kernel(source, x, bc="free", levels=30, tol=1e-8, lane="auto"):
    """Exhaustion limit of the dipole solves Lap v = delta_x - delta_o.

    Tracks R_k = v^(k)(x) (pinned), stops by the three-delta rule or window
    saturation, and returns (Potential, ConvergenceReport). Non-convergence is
    flagged on the report, never raised.
    """
    report = ConvergenceReport(quantity=f"energy_kernel(x={x}, bc={bc})", tol=tol)

    def record(radius, view, _, pot):
        report.record(radius, len(view.vertices), pot.value(x))

    pot = _limit(default_exhaustion(source, levels), x, {bc: report}, record,
                 lane=lane)[bc]
    w = pot.w.astype(float, copy=False)  # the window values as float64
    report.extra["max_principle_ok"] = bool(
        np.all(w >= -1e-9) and np.all(w <= pot.value(x) + 1e-9)) \
        if bc == "free" else None
    return pot, report


def effective_resistance(source, x, y=None, bc="free", exhaustion=None,
                         levels=30, tol=1e-8, lane="auto"):
    """Effective resistance R(x, y) as an exhaustion limit.

    Computed per level from the single dipole solve Lap v = delta_x - delta_y:
    R_k = v(x) - v(y), which equals the energy of the solution. With y = o
    this is v_x(x), the energy of the kernel at x. For x == y the limit is 0
    without a solve, once some level admits x.
    """
    if y is None:
        y = source.ball(1).origin
    x, y = int(x), int(y)
    exh = (exhaustion if exhaustion is not None
           else default_exhaustion(source, levels))
    report = ConvergenceReport(quantity=f"resistance({x},{y}, bc={bc})", tol=tol)
    if x == y:
        report.stopping_rule = "identical-vertices"
        report.values = [0.0]

    def record(radius, view, _, pot):
        value = pot.value(x) - pot.value(y)
        # dual route: on the level network, energy(v) = v(x) - v(y) exactly
        dev = abs(energy(pot, pot) - value)
        # np.maximum keeps a NaN, which max() would drop
        report.extra["max_energy_value_dev"] = float(np.maximum(
            report.extra.get("max_energy_value_dev", 0.0), dev))
        report.record(radius, len(view.vertices), value)

    _limit(exh, x, {bc: report}, record, rhs={x: 1, y: -1}, charges=(y,),
           lane=lane)
    return report.values[-1], report


@dataclass
class MonopoleResult:
    potential: Potential
    report: ConvergenceReport

    @property
    def transient(self):
        """True when the energies converged, False when they diverged, None
        for inconclusive: the outcome of the report's stopping rule."""
        return STOPPING_RULES.get(self.report.stopping_rule)


def monopole(source, x=None, levels=22, tol=1e-8, divergence_threshold=1e6,
             schedule="doubling", lane="auto"):
    """Wired exhaustion limit of Lap w = delta_x with per-level energies.

    transient=True when the energies satisfy the convergence rule (bounded
    limit exists: the network supports a finite-energy monopole), False when
    they pass the divergence threshold with increasing trend, None otherwise.
    ``schedule`` is 'doubling' (radii 1, 2, 4, ...) or 'linear' (1, 2, 3,
    ...). A doubling schedule cuts each level from its own ball (generator
    indices are stable), keeping divergence triage at deep radii affordable.
    """
    schedules = {"doubling": doubling_exhaustion, "linear": default_exhaustion}
    if schedule not in schedules:
        raise InvalidParameters(f"unknown schedule {schedule!r}")
    exhaustion = schedules[schedule](source, levels)
    x = int(x) if x is not None else source.ball(1).origin
    report = ConvergenceReport(quantity=f"monopole_energy(x={x})", tol=tol)

    def record(radius, view, _, pot):
        report.record(radius, len(view.vertices), energy(pot, pot))

    pot = _limit(exhaustion, x, {"wired": report}, record, rhs={x: 1},
                 lane=lane, divergence_threshold=divergence_threshold).get("wired")
    return MonopoleResult(potential=pot, report=report)


def exhaustion_independence(source, x, tol=1e-8, levels=24):
    """Compare two radius schedules for the limit R(x, o).

    Declared limits must agree within 10*tol when both schedules converge;
    when either is still moving at its level budget, the comparison is
    inconclusive rather than a failure (the disagreement of two unconverged
    prefixes carries no information about exhaustion independence).
    """
    r1, rep1 = effective_resistance(source, x, levels=levels, tol=tol)
    alt = Exhaustion.build(source, sorted({max(1, 2 * k) for k in range(1, levels // 2 + 2)}))
    r2, rep2 = effective_resistance(source, x, exhaustion=alt, tol=tol)
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
