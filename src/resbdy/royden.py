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

from . import _hifi
from .energy import (Potential, edge_energy, edge_laplacian, energy, field_of,
                     potential_difference, window_edges, window_values)
from .errors import InvalidParameters
from .network import default_exhaustion, generator_for
from .solver import ConvergenceReport, energy_kernel, solve_dipole_level


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
                 harm_tol=1e-6, lane="auto", verification_radius=None,
                 final_radius=None):
    """Split the energy kernel at x into Fin and Harm parts.

    Both exhaustion limits run on the same schedule; the final free and wired
    solutions share one window, where energies and residuals are evaluated.
    ``verification_radius`` bounds the ball on which the harmonicity residual
    of h is checked (defaults to the final window minus its boundary);
    ``final_radius`` forces one extra split on a window at least that deep,
    for consumers that need values far out (path evaluations).
    """
    gen = generator_for(source)
    exh = exhaustion or default_exhaustion(gen, levels)
    v, free_report = energy_kernel(gen, x, bc="free", exhaustion=exh,
                                   tol=tol, lane=lane)
    f, wired_report = energy_kernel(gen, x, bc="wired", exhaustion=exh,
                                    tol=tol, lane=lane)
    # re-solve both sides on one window: the deeper of where the two limits
    # stopped, or the requested final radius
    deeper = v.window if len(v.window.vertices) >= len(f.window.vertices) else f.window
    if final_radius is not None:
        have = int(v.net.level[deeper.vertices].max())
        if final_radius > have:
            ambient = gen.ball(int(final_radius) + 1)
            deeper = ambient.ball_view(int(final_radius))
    if not _solved_on(v, deeper):
        v = solve_dipole_level(deeper, x, bc="free", lane=lane)
    if not _solved_on(f, deeper):
        f = solve_dipole_level(deeper, x, bc="wired", lane=lane)
    h = potential_difference(v, f)
    window = h.window

    if verification_radius is None:
        check_vertices = window.interior
        radius = int(v.net.level[window.interior].max()) if len(window.interior) else 0
    else:
        radius = int(verification_radius)
        check_vertices = window.interior[
            v.net.level[window.interior] <= radius]
    ev, ef, eh, cross, resid = _split_sums(v, f, h, check_vertices)

    return RoydenSplit(
        x=int(x), v=v, f=f, h=h,
        energy_v=ev, energy_f=ef, energy_h=eh, cross_energy=cross,
        harm_residual_max=resid, harm_residual_radius=radius,
        free_report=free_report, wired_report=wired_report,
        harm_tol=harm_tol,
    )


def _solved_on(pot: Potential, window):
    """Whether ``pot`` was solved on ``window`` (same network, same vertices)."""
    return pot.net is window.net and np.array_equal(pot.window.vertices,
                                                    window.vertices)


def _split_sums(v: Potential, f: Potential, h: Potential, check_vertices):
    """E(v), E(f), E(h), E(f, h) and max |Lap h| over ``check_vertices``.

    The sums run in the potentials' field (mp values at ``EDGE_SUM_DPS``),
    over one conversion of the window's conductances, and each energy equals
    a separate ``energy`` call bit for bit. The residual needs the
    high-precision values too: float64 Laplacian evaluation loses all meaning
    once local conductances exceed ~1e12, since its error scales like
    c(x) * eps * |h|.
    """
    window = h.window
    vw, fw, hw = window_values(v), window_values(f), window_values(h)
    with _hifi.workdps(_hifi.EDGE_SUM_DPS):
        edges = window_edges(window, field_of(hw))
        sums = [float(edge_energy(*edges, x, y))
                for x, y in ((vw, vw), (fw, fw), (hw, hw), (fw, hw))]
        lap = edge_laplacian(*edges, hw)
        check = np.searchsorted(window.vertices, check_vertices)
        resid = float(np.max(np.abs(lap[check]))) if len(check) else 0.0
    return (*sums, resid)


def fin_projection(source, x, exhaustion=None, levels=30, tol=1e-8, lane="auto"):
    """Wired exhaustion limit of the dipole solve: the Fin component of v_x."""
    return energy_kernel(source, x, bc="wired", exhaustion=exhaustion,
                         levels=levels, tol=tol, lane=lane)


def harm_kernel(source, x, exhaustion=None, levels=30, tol=1e-8,
                harm_tol=1e-6, lane="auto", verification_radius=None):
    """Harmonic kernel h_x = v_x - f_x, with its split telemetry."""
    split = royden_split(source, x, exhaustion=exhaustion, levels=levels,
                         tol=tol, harm_tol=harm_tol, lane=lane,
                         verification_radius=verification_radius)
    return split.h, split


def sup_norm(pot: Potential, ball_radius=None) -> float:
    """max |v(x) - v(o)| over the window (a lower bound for the true sup).

    The potential must be the pinned representative; pass ``ball_radius`` to
    restrict the scan.
    """
    if not pot.pinned:
        raise InvalidParameters("sup_norm expects the pinned representative")
    verts = pot.window.vertices
    if ball_radius is not None:
        verts = verts[pot.net.level[verts] <= int(ball_radius)]
    if len(verts) == 0:
        return 0.0
    return float(np.max(np.abs(pot.values[verts])))
