"""Royden decomposition of energy kernels: H_E = Fin (+) Harm.

The finitely-supported projection f_x is identified with the wired exhaustion
limit of the dipole solves, the harmonic kernel is h_x = v_x - f_x, and the
identification is verified a posteriori on every run: the Laplacian residual
of h_x over a verification ball, the Pythagoras identity
energy(v) = energy(f) + energy(h), and the cross term energy(f, h) ~ 0.
On each finite window the free and wired solutions are exactly orthogonal
(the wired representative vanishes on the window boundary while h is
harmonic inside), so the checks carry the convergence error only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .energy import (Potential, current_energy, edge_currents, energy,
                     flow_laplacian, potential_difference)
from .errors import InvalidParameters
from .network import default_exhaustion
from .solver import ConvergenceReport, _limit, solve_dipole_level


@dataclass
class RoydenSplit:
    """Energy kernel split v_x = f_x + h_x with verification telemetry."""

    x: int
    v: Potential
    f: Potential
    h: Potential
    energy_v: float
    energy_f: float
    energy_h: float
    cross_energy: float
    harm_residual_max: float
    harm_residual_radius: int
    free_report: ConvergenceReport
    wired_report: ConvergenceReport
    harm_tol: float = 1e-6

    @property
    def pythagoras_deviation(self):
        scale = max(self.energy_v, 1e-300)
        return abs(self.energy_v - self.energy_f - self.energy_h) / scale

    @property
    def harmonicity_violated(self):
        return not (self.harm_residual_max <= self.harm_tol)

    def to_dict(self):
        return {
            "x": self.x,
            "energy_v": self.energy_v,
            "energy_f": self.energy_f,
            "energy_h": self.energy_h,
            "cross_energy": self.cross_energy,
            "pythagoras_deviation": self.pythagoras_deviation,
            "harm_residual_max": self.harm_residual_max,
            "harm_residual_radius": self.harm_residual_radius,
            "harmonicity_violated": self.harmonicity_violated,
            "free_converged": self.free_report.converged,
            "wired_converged": self.wired_report.converged,
        }


def royden_split(source, x, exhaustion=None, levels=30, tol=1e-8,
                 harm_tol=1e-6, lane="auto", final_radius=None):
    """Split the energy kernel at x into Fin and Harm parts.

    Both exhaustion limits come from one pass over the schedule, each
    stopping by its own rule; the final free and wired solutions share one
    window, the deeper of the two where the limits stopped, where energies
    and residuals are evaluated; the harmonicity residual of h is checked on
    the window's interior.
    ``final_radius`` forces one extra split on a window at least that deep,
    for consumers that need values far out (path evaluations).
    """
    exh = exhaustion or default_exhaustion(source, levels)
    reports = {bc: ConvergenceReport(quantity=f"energy_kernel(x={x}, bc={bc})",
                                     tol=tol) for bc in ("free", "wired")}

    def record(radius, view, bc, pot):
        reports[bc].record(radius, len(view.vertices), pot.value(x))

    pots = _limit(exh, x, reports, record, lane=lane)
    # the pass ends on the deeper of the two windows where the limits stop
    deeper = pots[max(pots, key=lambda bc: reports[bc].radii[-1])].window
    if final_radius is not None:
        have = int(deeper.net.level[deeper.vertices].max())
        if final_radius > have:
            ambient = source.ball(int(final_radius) + 1)
            deeper = ambient.ball_view(int(final_radius))
    # a side that stopped on another window is solved again on this one
    for bc, pot in pots.items():
        if pot.window is not deeper:
            pots[bc] = solve_dipole_level(deeper, x, bc=bc, lane=lane)
    v, f = pots["free"], pots["wired"]
    h = potential_difference(v, f)

    interior = deeper.interior
    radius = int(deeper.net.level[interior].max()) if len(interior) else 0
    ev, ef, eh, cross, resid = _split_sums(v, f, h)

    return RoydenSplit(
        x=int(x), v=v, f=f, h=h,
        energy_v=ev, energy_f=ef, energy_h=eh, cross_energy=cross,
        harm_residual_max=resid, harm_residual_radius=radius,
        free_report=reports["free"], wired_report=reports["wired"],
        harm_tol=harm_tol,
    )


def _split_sums(v: Potential, f: Potential, h: Potential):
    """E(v), E(f), E(h), E(f, h) and max |Lap h| over the window's interior.

    The sums run over the potentials' ``edge_currents``, taken in one pass
    of the window's edges, each energy bit for bit as ``energy``. In mp and
    Fraction they are the solves' carried currents: formed from values, the
    residual's error would scale like c(x) * eps * |h|.
    """
    window = h.window
    c, a, b, (iv, i_f, ih) = edge_currents(window, v, f, h)
    sums = [current_energy(c, x, y)
            for x, y in ((iv, iv), (i_f, i_f), (ih, ih), (i_f, ih))]
    lap = flow_laplacian(a, b, ih, len(h.w))
    inner = ~window.bd_mask[window.vertices]
    resid = float(np.max(np.abs(lap[inner]))) if inner.any() else 0.0
    return (*map(float, sums), resid)


def sup_norm(pot: Potential) -> float:
    """max |v(x) - v(o)| over the window (a lower bound for the true sup).

    The potential must be the pinned representative.
    """
    if not pot.pinned:
        raise InvalidParameters("sup_norm expects the pinned representative")
    return float(np.max(np.abs(pot.w.astype(float)), initial=0.0))
