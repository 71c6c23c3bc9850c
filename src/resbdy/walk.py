"""Random-walk cross-checks of the potential-theoretic quantities.

The walk moves with p(x, y) = c_xy / c(x). On a finite window the dipole
solution pinned at the absorber satisfies v(y) / v(x) = P_y[hit x before o],
which gives an independent Monte Carlo route to kernel values. Windows of an
infinite network are walked with either reflecting boundary (the window as a
network in itself, matching the free solve) or boundary absorption into the
grounded side (matching the wired solve).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameters, IsolatedVertex
from .solver import solve_dipole_level


def transition_probabilities(net, x):
    """Neighbor indices and step probabilities c_xy / c(x) at vertex x."""
    x = int(x)
    if not (0 <= x < net.n):
        raise IsolatedVertex(f"vertex {x} is not materialized")
    nbrs, conds = net.neighbors(x)
    if len(nbrs) == 0:
        raise IsolatedVertex(f"vertex {x} has no neighbors")
    p = conds / conds.sum()
    return nbrs.copy(), p


@dataclass
class WalkConfig:
    trials: int = 100_000
    seed: int = 0
    max_steps: int = 1_000_000
    boundary_mode: str = "free"   # "free" reflects, "wired" absorbs to o

    def __post_init__(self):
        if self.trials < 1:
            raise InvalidParameters("trials must be >= 1")
        if not 0 <= self.seed < 2 ** 128:
            raise InvalidParameters("seed must be in [0, 2^128)")
        if self.boundary_mode not in ("free", "wired"):
            raise InvalidParameters("boundary_mode must be 'free' or 'wired'")


@dataclass
class HittingEstimate:
    estimate: float
    stderr: float
    trials: int
    absorbed: int
    unabsorbed: int
    reference: float = None

    @property
    def biased(self):
        return self.unabsorbed > 0

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


def _walk_tables(view):
    """Flattened per-vertex cumulative step tables for the induced subgraph."""
    net = view.net
    m = view.edge_mask
    ei, ej, ec = net.ei[m], net.ej[m], net.ec[m]
    n = net.n
    deg = np.zeros(n, dtype=np.int64)
    np.add.at(deg, ei, 1)
    np.add.at(deg, ej, 1)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(deg, out=offsets[1:])
    nbr = np.zeros(offsets[-1], dtype=np.int64)
    wt = np.zeros(offsets[-1])
    cursor = offsets[:-1].copy()
    for a, b, c in zip(ei, ej, ec):
        nbr[cursor[a]] = b
        wt[cursor[a]] = c
        cursor[a] += 1
        nbr[cursor[b]] = a
        wt[cursor[b]] = c
        cursor[b] += 1
    # cumulative probabilities, globally increasing when offset by the vertex id
    flat = np.zeros(offsets[-1])
    for v in view.vertices:
        s, e = offsets[v], offsets[v + 1]
        if s == e:
            continue
        c = np.cumsum(wt[s:e])
        flat[s:e] = v + c / c[-1]
    return offsets, nbr, flat


def _check_target(target, absorber):
    if target == absorber:
        raise InvalidParameters(
            f"target and absorber are both vertex {target}; the absorber "
            "defaults to the origin")


def hitting_probability_mc(view, start, target, absorber=None, config=None):
    """Monte Carlo estimate of P_start[hit target before absorber].

    Walks run on the window's induced subgraph. With boundary_mode='wired',
    stepping onto a window-boundary vertex absorbs the walk on the absorber
    side (the shorted boundary is grounded with the origin). Walks that
    reach max_steps are counted separately and excluded from the estimate.
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
        return HittingEstimate(1.0, 0.0, config.trials, config.trials, 0)
    if start == absorber:
        return HittingEstimate(0.0, 0.0, config.trials, config.trials, 0)

    offsets, nbr, flat = _walk_tables(view)
    absorb = np.zeros(net.n, dtype=np.int8)   # 1 success, 2 fail
    absorb[target] = 1
    absorb[absorber] = 2
    if config.boundary_mode == "wired":
        absorb[view.bd[absorb[view.bd] == 0]] = 2

    rng = np.random.Generator(np.random.Philox(key=config.seed))
    states = np.full(config.trials, start, dtype=np.int64)
    success = 0
    fail = 0
    active = np.arange(config.trials)
    steps = 0
    while len(active) and steps < config.max_steps:
        u = rng.random(len(active))
        cur = states[active]
        # segment of vertex v holds values in (v, v+1]; side="right" keeps the
        # u = 0 draw inside v's own segment
        pos = np.searchsorted(flat, cur + u, side="right")
        states[active] = nbr[pos]
        cls = absorb[states[active]]
        done = cls != 0
        success += int(np.sum(cls == 1))
        fail += int(np.sum(cls == 2))
        active = active[~done]
        steps += 1
    absorbed = success + fail
    unabsorbed = config.trials - absorbed
    if absorbed == 0:
        return HittingEstimate(np.nan, np.nan, config.trials, 0, unabsorbed)
    p = success / absorbed
    stderr = float(np.sqrt(p * (1.0 - p) / absorbed))
    return HittingEstimate(float(p), stderr, config.trials, absorbed, unabsorbed)


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
