"""Random-walk cross-checks of the potential-theoretic quantities.

The walk moves with p(x, y) = c_xy / c(x). On a finite window the dipole
solution pinned at the absorber satisfies v(y) / v(x) = P_y[hit x before o],
which gives an independent Monte Carlo route to kernel values. A window of an
infinite network is walked as a network in itself, reflecting at its
boundary, which matches the free solve.

Walkers sit on window positions, the indices into ``view.vertices``. The
window edges of a vertex, in edge order, are its slots 0, ..., deg - 1, and
two tables per slot j hold, for every position, the neighbour's position and
the cumulative step probability P_j = (c_0 + ... + c_j) / c(x). A step with
uniform draw u takes slot sum_{j < deg - 1} [P_j <= u]. Past a vertex's last
slot P_j = 1, which no draw in [0, 1) reaches, so one comparison per slot
below the window's largest degree steps every walker at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .energy import edge_ends
from .errors import InvalidParameters, IsolatedVertex
from .solver import check, solve_dipole_level
from .wiener import SIGMAS


def _step_weights(net, owner, edges):
    """Float step weights of the entries (owner[i], edges[i]), in entry order.

    owner numbers the vertices that step, edges holds network edge ids. A
    weight is its edge's float conductance, unless its owner's weights do not
    sum to a finite total: the float mirror saturates to inf on deep windows,
    and such an owner's weights are its exact conductances divided by the
    largest of them, each rounded once, which leaves its step probabilities as
    they are.
    """
    w = net.ec[edges]
    with np.errstate(over="ignore"):
        total = np.bincount(owner, weights=w)
    bad = np.flatnonzero(~np.isfinite(total[owner]))
    if len(bad):
        owners = owner[bad].tolist()
        exact = net.exact_conductances(edges[bad])
        top = {}
        for o, c in zip(owners, exact):
            top[o] = max(top.get(o, c), c)
        w = w.copy()
        w[bad] = [float(c / top[o]) for o, c in zip(owners, exact)]
    return w


@dataclass
class WalkConfig:
    trials: int = 100_000
    seed: int = 0
    max_steps: int = 1_000_000

    def __post_init__(self):
        if self.trials < 1:
            raise InvalidParameters("trials must be >= 1")
        if self.max_steps < 1:
            raise InvalidParameters("max_steps must be >= 1")
        if not 0 <= self.seed < 2 ** 128:
            raise InvalidParameters("seed must be in [0, 2^128)")


@dataclass
class HittingEstimate:
    estimate: float
    stderr: float
    trials: int
    unabsorbed: int
    reference: float = None

    @property
    def absorbed(self):
        return self.trials - self.unabsorbed

    @property
    def biased(self):
        return self.unabsorbed > 0

    @property
    def check(self):
        """The estimate within SIGMAS standard errors of ``reference``; with
        no absorbed walk the estimate is NaN, which fails (fmax keeps the
        bound finite)."""
        return check("hitting-probability", abs(self.estimate - self.reference),
                     SIGMAS * np.fmax(self.stderr, 1e-12))

    def to_dict(self):
        return {
            "estimate": self.estimate,
            "stderr": self.stderr,
            "trials": self.trials,
            "absorbed": self.absorbed,
            "unabsorbed_excluded": self.unabsorbed,
            "bias_note": ("unabsorbed walks were excluded; estimate is "
                          "conditionally biased" if self.biased else ""),
            "reference": self.reference,
        }


def _slot_tables(view):
    """Per-slot tables over the window positions: nbr[j] holds each
    position's slot-j neighbour as a position, cum[j] its P_j for j below the
    largest degree minus 1, and deg its number of window edges."""
    edges, a, b = edge_ends(view)
    # entry 2k is edge k seen from a, entry 2k + 1 from b; a stable sort by
    # owner keeps each vertex's slots in edge order
    owner = np.stack([a, b], axis=1).ravel()
    order = np.argsort(owner, kind="stable")
    owner = owner[order]
    other = np.stack([b, a], axis=1).ravel()[order]
    size = len(view.vertices)
    deg = np.bincount(owner, minlength=size)
    slot = np.arange(len(owner)) - (np.cumsum(deg) - deg)[owner]
    width = max(int(deg.max(initial=0)), 1)
    nbr = np.zeros((width, size), dtype=np.int64)
    nbr[slot, owner] = other
    wt = np.zeros((width, size))
    wt[slot, owner] = _step_weights(view.net, owner, np.repeat(edges, 2)[order])
    # the running sums go slot by slot, in the order np.cumsum adds a vertex's
    # weights, and slots past a vertex's degree add 0, so P_j = 1 there
    c = np.cumsum(wt, axis=0)
    cum = c[:-1] / np.where(deg > 0, c[-1], 1.0)
    return nbr, cum, deg


def _step(nbr, cum, cur, u):
    """Next window positions of walkers at positions cur with draws u in [0, 1)."""
    slot = np.zeros(len(cur), dtype=np.int64)
    for p in cum:
        slot += p[cur] <= u
    return nbr.ravel()[slot * nbr.shape[1] + cur]


def _check_target(target, absorber):
    if target == absorber:
        raise InvalidParameters(
            f"target and absorber are both vertex {target}; the absorber "
            "defaults to the origin")


def hitting_probability_mc(view, start, target, absorber=None, config=None):
    """Monte Carlo estimate of P_start[hit target before absorber].

    Walks run on the window's induced subgraph, so they reflect at its
    boundary. Walks that reach max_steps are counted separately and excluded
    from the estimate. A start with no edge inside the window raises
    IsolatedVertex.
    """
    net = view.net
    config = config or WalkConfig()
    absorber = net.origin if absorber is None else int(absorber)
    start, target = int(start), int(target)
    _check_target(target, absorber)
    for v in (start, target, absorber):
        if v not in view:
            raise InvalidParameters(f"vertex {v} is outside the window")
    if start == target:
        return HittingEstimate(1.0, 0.0, config.trials, 0)
    if start == absorber:
        return HittingEstimate(0.0, 0.0, config.trials, 0)

    nbr, cum, deg = _slot_tables(view)
    s, t, o = view.index([start, target, absorber]).tolist()
    if deg[s] == 0:
        raise IsolatedVertex(f"vertex {start} has no neighbors in the window")
    absorb = np.zeros(len(view.vertices), dtype=np.int8)   # 1 success, 2 fail
    absorb[t] = 1
    absorb[o] = 2

    rng = np.random.Generator(np.random.Philox(key=config.seed))
    cur = np.full(config.trials, s, dtype=np.int64)   # active walkers, start order
    success = 0
    steps = 0
    while len(cur) and steps < config.max_steps:
        nxt = _step(nbr, cum, cur, rng.random(len(cur)))
        cls = absorb[nxt]
        success += int(np.count_nonzero(cls == 1))
        cur = nxt[cls == 0]
        steps += 1
    unabsorbed = len(cur)
    absorbed = config.trials - unabsorbed
    if absorbed == 0:
        return HittingEstimate(np.nan, np.nan, config.trials, unabsorbed)
    p = success / absorbed
    stderr = float(np.sqrt(p * (1.0 - p) / absorbed))
    return HittingEstimate(float(p), stderr, config.trials, unabsorbed)


def hitting_reference(view, start, target, absorber=None):
    """Solver-side value of P_start[hit target before absorber].

    Solves the dipole between target and absorber on the window and scales:
    the kernel identity v_x = R(o, x) u_x gives u_x(y) = v_x(y) / v_x(x).
    """
    net = view.net
    absorber = net.origin if absorber is None else int(absorber)
    _check_target(int(target), absorber)
    pot = solve_dipole_level(view, int(target), bc="free",
                             rhs={int(target): 1, absorber: -1})
    denom = pot.value(int(target)) - pot.value(absorber)
    return (pot.value(int(start)) - pot.value(absorber)) / denom
